#!/usr/bin/env python3
"""Run one workload of the mtlhouse benchmark and print its metrics.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. Set-up writes the workload's inputs from the
seed into ``.perfbench_work/<workload>/`` (several times, each in a fresh
interpreter, to time it). The measuring loop then runs ``mtlhouse run`` on
those inputs, each repetition in a fresh interpreter through
``mtlhouse.cli.main``, as often as fits in ``--seconds``, and checks every
repetition's outputs. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_outputs, expected_records, output_digest, overall_rmses
from spans import layer_metrics, median_metrics
from workloads import CONFIG_FILE, K, OUT_DIR, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = Path(".perfbench_work")  # relative to ROOT, where every child runs
SPANS_FILE = "spans.json"
SETUP_REPEATS = 3  # an untraced run sets up at least this many times,
SETUP_SHARE = 0.1  # and more while set-up has taken less than this share of --seconds
MIN_REPS = 3  # an untraced run takes at least this many repetitions
CHILD_TIMEOUT_S = 170
sys.path.insert(0, str(ROOT / "src"))

# every metric's unit, as BENCHMARK.json declares it
UNITS = {
    m["name"]: m["unit"]
    for group in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[group]
}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure this workload at all."""


def child_env() -> dict:
    """The environment for child interpreters, without the MTLHOUSE_* overrides
    of the output directory and thread count, so every run uses its config and
    the CLI defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MTLHOUSE_")}


def _child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[0]} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded, if it has one."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool = False, workdir=None) -> dict:
    """Set up, run and check one workload; return the result and its samples."""
    workdir = Path(workdir) if workdir is not None else WORK_ROOT / workload.name
    local = ROOT / workdir
    shutil.rmtree(local, ignore_errors=True)
    setup_args = ["setup", "--workload", workload.name, "--seed", str(seed), "--workdir", str(workdir)]
    setup_args += ["--smoke"] if smoke else []
    setup_s: list[float] = []
    setup_start = time.perf_counter()
    while not setup_s or (not trace and (
        len(setup_s) < SETUP_REPEATS or time.perf_counter() - setup_start < SETUP_SHARE * seconds
    )):
        setup_s.append(_child(*setup_args)["setup_s"])

    expected = expected_records(generate(workload, seed, smoke), workload.definitions, K)
    labels = [m["label"] for m in workload.methods]
    reps: list[dict] = []
    rounds: list[float] = []
    start = time.perf_counter()
    # stop before a round that would end after `seconds`, judged by the rounds so far
    min_rounds = 1 if trace else MIN_REPS
    while len(rounds) < min_rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            shutil.rmtree(local / OUT_DIR, ignore_errors=True)
            args = ["run", "--config", str(workdir / CONFIG_FILE)]
            if traced:
                args += ["--spans", str(workdir / SPANS_FILE)]
                if workload.probe and not any(r["traced"] for r in reps):
                    args.append("--probe")
            rep = {"traced": traced, "problems": []}
            try:
                rep.update(_child(*args))
                if rep["exit_code"] != 0:
                    rep["problems"].append(f"mtlhouse run exited with {rep['exit_code']}")
                else:
                    rep["problems"] += check_outputs(local, labels, expected)
                    rep["digest"] = output_digest(local)
                    report = json.loads((local / OUT_DIR / "report.json").read_text())
                    rep["test_rmse"] = statistics.fmean(overall_rmses(report))
                if traced:
                    trace_doc = json.loads((local / SPANS_FILE).read_text())
                    rep["layers"] = layer_metrics(trace_doc["spans"], trace_doc["cpu_s"])
                    rep["probe"] = trace_doc["probe"]
            except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
                rep["problems"].append(f"{type(exc).__name__}: {exc}")
            reps.append(rep)
        rounds.append(time.perf_counter() - round_start)

    digests = [r["digest"] for r in reps if "digest" in r]
    for r in reps:
        if "digest" in r and r["digest"] != digests[0]:
            r["problems"].append("outputs differ from the first checked repetition's")
    ok = [r for r in reps if not r["problems"]]
    if not ok:
        raise BenchmarkError(f"no repetition succeeded: {reps[0]['problems']}")

    untraced = [r["run_s"] for r in reps if not r["traced"] and "run_s" in r]
    if trace:
        traced_reps = [r for r in reps if r["traced"] and "layers" in r]
        if not traced_reps:
            raise BenchmarkError(f"no traced repetition completed: {reps[-1]['problems']}")
        metrics = median_metrics([r["layers"] for r in traced_reps])
        probe = next((r["probe"] for r in traced_reps if r["probe"]), {})
        metrics["solver.obj_excess_max"] = probe.get("solver.obj_excess_max", 0.0)
        metrics["solver.weight_err_max"] = probe.get("solver.weight_err_max", 0.0)
        metrics["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced_reps) - statistics.median(untraced)
    else:
        metrics = {
            # total run time over runs completed: on a machine whose speed flips between
            # two states every few seconds this varies less across runs than the median
            "run_s": statistics.fmean(untraced),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps if "peak_rss_mb" in r),
            "test_rmse": ok[0]["test_rmse"],
        }
    failed = sum(1 for r in reps if r["problems"])
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        },
        "setup_s": setup_s,
        "reps": reps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mtlhouse" / "__init__.py").is_file():
        print(f"error: no mtlhouse sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    try:
        outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = outcome["result"]
    record = {"environment": env, "trace": args.trace, **outcome}
    (ROOT / WORK_ROOT / args.workload / "result.json").write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(env))
    for r in outcome["reps"]:
        for problem in r["problems"]:
            print(f"check failed: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share {result['failed'] / result['attempted']:.6g} ratio ({result['failed']} of {result['attempted']} runs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
