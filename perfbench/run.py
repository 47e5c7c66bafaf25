"""Benchmark of sinccol: the paper table, wavefunction sampling and a CLI sweep.

One workload per process:

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 24 --trace 0

runs passes of the workload until the next pass would overrun ``--seconds``
(at least one pass), checks every pass against frozen check values and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` repeats the same number of
passes with every layer wrapped and reports the per-layer metrics instead.
The lines before it give the environment record, a readable summary and
the failures; the same, with every pass, is written to
``perfbench/results/<workload>-seed<n>-trace<t>.json``.

Every workload, untraced and then traced, each in its own process:

    python3 perfbench/run.py --all --seed 1 --seconds 24

See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sinccol.coulomb  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, is_correct  # noqa: E402

SETUP_SAMPLES = 5
# Timed in a fresh interpreter: import sinccol and one warm-up solve, which
# also starts the BLAS thread pool.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sinccol
sinccol.solve_states(1, 5, M=10)
print(time.perf_counter() - t0)
"""
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "large_solve_s": "s", "peak_rss_mb": "MB"}


@dataclass
class PassRecord:
    wall_s: float
    cpu_s: float
    first_span: int
    last_span: int
    outcomes: list


def environment() -> dict:
    """What a dgeev timing depends on; runs with different records do not compare."""
    def blas(package, key, pattern, threads_symbol):
        config = package.__config__.CONFIG["Build Dependencies"][key]
        record = {k: config.get(k) for k in ("name", "version", "openblas configuration")}
        site = os.path.dirname(os.path.dirname(package.__file__))
        libs = glob.glob(os.path.join(site, pattern))
        get_threads = getattr(ctypes.CDLL(libs[0]), threads_symbol, None) if libs else None
        record["library"] = os.path.basename(libs[0]) if libs else None
        record["threads"] = get_threads() if get_threads else None
        return record

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np, "blas", "numpy.libs/libscipy_openblas*.so",
                           "scipy_openblas_get_num_threads64_"),
        "scipy_lapack": blas(scipy, "lapack", "scipy.libs/libscipy_openblas*.so",
                             "scipy_openblas_get_num_threads"),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_seconds() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload, tracer: Tracer, seconds: float | None = None,
            passes: int | None = None) -> list[PassRecord]:
    """Timed passes until the next one would overrun ``seconds``, or exactly ``passes``."""
    records: list[PassRecord] = []
    started = time.perf_counter()
    while True:
        first = len(tracer.spans)
        cpu0, t0 = time.process_time(), time.perf_counter()
        raw = workload.run_pass()
        t1, cpu1 = time.perf_counter(), time.process_time()
        records.append(PassRecord(t1 - t0, cpu1 - cpu0, first, len(tracer.spans),
                                  workload.check(raw)))
        if passes is not None:
            if len(records) == passes:
                return records
        elif time.perf_counter() - started + (t1 - t0) > seconds:
            return records


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = setup_seconds()
    sinccol.coulomb.solve_states(1, 5, M=10)  # this process's own warm-up, untimed
    workload = WORKLOADS[name](seed)

    timer = layers.install(Tracer(), layers.SOLVE_POINTS)
    try:
        untraced = measure(workload, timer, seconds=seconds)
    finally:
        timer.restore()
    walls = [r.wall_s for r in untraced]
    records = untraced
    if trace:
        tracer = layers.install(Tracer(), layers.LAYER_POINTS)
        try:
            traced = measure(workload, tracer, passes=len(untraced))
        finally:
            tracer.restore()
        records = untraced + traced
        metrics = layers.layer_metrics(
            tracer.spans, len(traced), [r.wall_s for r in traced], walls,
            sum(r.cpu_s for r in traced))
        units = layers.LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "large_solve_s": statistics.median(
                layers.largest_solve_s(timer.spans[r.first_span:r.last_span]) for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    outcomes = [o for r in records for o in r.outcomes]
    failed = sum(1 for o in outcomes if o.failed)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "setup_samples_s": setup,
        "passes": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s} for r in records],
        "failed_frac": failed / len(outcomes),
        "failures": sorted({f"{o.failed}{o.problem}" for o in outcomes if o.failed or o.problem}),
        "result": {
            "correct": is_correct(outcomes),
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def summary_line(report: dict) -> str:
    res = report["result"]
    figures = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
    return (f"{report['workload']} trace={report['trace']} passes={len(report['passes'])}  "
            f"{figures}  failed_frac={report['failed_frac']:.6g} "
            f"({res['failed']}/{res['attempted']} solves)  correct={res['correct']}")


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each in a process of its own."""
    reports = []
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            reports.append(json.loads((RESULTS / f"{name}-seed{seed}-trace{trace}.json").read_text()))
            print(summary_line(reports[-1]), flush=True)
    path = RESULTS / f"BENCH_seed{seed}.json"
    path.write_text(json.dumps(reports, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print("environment " + json.dumps(report["environment"]))
    for failure in report["failures"]:
        print("failure " + failure)
    print(summary_line(report))
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
