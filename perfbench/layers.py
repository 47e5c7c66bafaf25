"""Where the benchmark wraps sinccol, and how spans become per-layer metrics.

Computed counts (not measured):

* ``geev_flops(K) = (25 + 4/3) K^3``: the real Schur form with Schur
  vectors costs about 25 K^3 flops (Golub & Van Loan, Matrix
  Computations, 4th ed., section 7.5.6); the eigenvectors of the
  quasi-triangular factor add about K^3/3 and their back-transformation
  by the Schur vectors about K^3.
* The residual contract in ``dense_eig.eig`` multiplies the K x K matrix
  by the real part of the eigenvectors, and by the imaginary part too
  when any eigenvalue is complex: ``2 K^3`` flops per product.
* Dense bytes are 8 K^2 per K x K float64 array, summed over the
  two-dimensional arrays the call returns (``ndarray.nbytes``).
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
from collections import defaultdict

import numpy as np
import scipy.linalg

import sinccol
import sinccol.cli
import sinccol.collocation
import sinccol.coulomb
import sinccol.sinc

from tracer import Span, Tracer, self_times


def geev_flops(K: int) -> float:
    return (25.0 + 4.0 / 3.0) * float(K) ** 3


def dense_bytes(obj: object) -> int:
    """8 K^2 per two-dimensional array field of a returned dataclass."""
    arrays = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray) and a.ndim == 2)


@functools.lru_cache(maxsize=64)
def grid_size(l: int, M: int, beta: float, d: float) -> int:
    """K of the flagship grid; the unwrapped ``sinccol.sinc`` name records no span."""
    return sinccol.sinc.build_grid(alpha=l + 0.5, beta=beta, d=d, M=M).size


def _states_counts(result, b):
    a = b.arguments
    return {"K": grid_size(a["l"], a["M"], a["beta"], a["d"]), "solves": 1}


def _table_counts(result, b):
    a = b.arguments
    sizes = [grid_size(l, a["M"], a["beta"], a["d"]) for l in a["l_values"]]
    return {"K": max(sizes), "solves": len(sizes)}


def _geev_counts(result, b):
    return {"K": b.arguments["a"].shape[0]}


def _eig_counts(result, b):
    w = result.eigenvalues
    K = len(w)
    real = np.abs(w.imag) <= sinccol.REALITY_TOL * np.maximum(1.0, np.abs(w.real))
    gemms = 2 if np.any(w.imag != 0.0) else 1
    return {
        "K": K,
        "flops": geev_flops(K) + gemms * 2.0 * float(K) ** 3,
        "residual_max": float(np.max(result.residuals)),
        "real": int(np.count_nonzero(real)),
    }


def _solve_counts(result, b):
    return {"K": b.arguments["problem"].grid.size, "returned": len(result)}


def _main_counts(result, b):
    # The benchmark captures each CLI call's stdout in a fresh StringIO.
    return {"bytes_out": len(sys.stdout.getvalue().encode())}


def _bytes_counts(result, b):
    return {"bytes": dense_bytes(result)}


def _interp_counts(result, b):
    return {"kernel_evals": np.size(b.arguments["x"]) * b.arguments["grid"].size}


# Entry points that hold exactly one solve (or, for eigen_table, one per
# l value); the untraced run wraps only these, to time the largest solve.
SOLVE_POINTS = [
    (sinccol.coulomb, "solve_states", "coulomb.solve_states", _states_counts),
    (sinccol.cli, "solve_states", "coulomb.solve_states", _states_counts),
    (sinccol.cli, "eigen_table", "coulomb.eigen_table", _table_counts),
]

LAYER_POINTS = SOLVE_POINTS + [
    (scipy.linalg, "eig", "lapack.geev", _geev_counts),
    (sinccol.collocation, "eig", "dense_eig.eig", _eig_counts),
    (sinccol.coulomb, "solve", "collocation.solve", _solve_counts),
    (sinccol.coulomb, "assemble", "collocation.assemble", _bytes_counts),
    (sinccol.collocation, "build_deltas", "sinc.build_deltas", _bytes_counts),
    (sinccol.coulomb, "build_grid", "sinc.build_grid", None),
    (sinccol.coulomb, "interpolate", "sinc.interpolate", _interp_counts),
    (sinccol.coulomb, "normalize", "coulomb.normalize", None),
    (sinccol.coulomb, "evaluate_radial", "coulomb.evaluate_radial", None),
    (sinccol.coulomb, "state_overlap", "coulomb.state_overlap", None),
    (sinccol.cli, "main", "cli.main", _main_counts),
]


def install(tracer: Tracer, points) -> Tracer:
    for owner, attr, name, counts in points:
        tracer.wrap(owner, attr, name, counts)
    return tracer


def largest_solve_s(spans: list[Span]) -> float:
    """Duration of the single-solve span with the largest K; spans of
    solves that raised carry no K, and if all did, the longest span counts."""
    single = [s for s in spans if s.counts.get("solves") == 1]
    longest = max(spans, key=lambda s: s.duration)
    return max(single, key=lambda s: s.counts["K"], default=longest).duration


# name -> unit, in the order the traced run reports them
LAYER_UNITS = {
    "lapack.geev.s": "s",
    "lapack.geev.gflops": "GFLOP/s",
    "lapack.geev.share": "ratio",
    "dense_eig.eig.flops": "flop",
    "dense_eig.eig.K_max": "count",
    "dense_eig.eig.self_s": "s",
    "dense_eig.eig.residual_max": "ratio",
    "dense_eig.eig.errors": "count",
    "collocation.solve.self_s": "s",
    "collocation.solve.useful_ratio": "ratio",
    "collocation.solve.real_ratio": "ratio",
    "collocation.assemble.self_s": "s",
    "collocation.assemble.bytes": "B",
    "sinc.build_deltas.s": "s",
    "sinc.build_deltas.bytes": "B",
    "sinc.build_grid.s": "s",
    "sinc.build_grid.calls": "count",
    "sinc.interpolate.s": "s",
    "sinc.interpolate.kernel_evals": "count",
    "coulomb.evaluate_radial.self_s": "s",
    "coulomb.state_overlap.s": "s",
    "coulomb.normalize.s": "s",
    "coulomb.normalize.calls": "count",
    "coulomb.solve_states.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.bytes_out": "B",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], passes: int, traced_walls: list[float],
                  untraced_walls: list[float], cpu_s: float) -> dict[str, float]:
    """Per-pass layer figures from the spans of ``passes`` traced passes.

    Times and counts are totals divided by ``passes``; ratios are taken
    over the totals.  ``cpu_s`` is the total over the traced passes.
    """
    selfs = self_times(spans)
    total = defaultdict(float)  # "<span>.s", "<span>.self_s", "<span>.calls", "<span>.<count>"
    maxima = defaultdict(float)
    for span, own in zip(spans, selfs):
        total[span.name + ".s"] += span.duration
        total[span.name + ".self_s"] += own
        total[span.name + ".calls"] += 1
        for key, value in span.counts.items():
            total[f"{span.name}.{key}"] += value
            maxima[f"{span.name}.{key}"] = max(maxima[f"{span.name}.{key}"], value)

    def per_pass(key):
        return total[key] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    geev_flops_total = sum(geev_flops(s.counts["K"]) for s in spans if s.name == "lapack.geev")
    wall = sum(traced_walls)
    return {
        "lapack.geev.s": per_pass("lapack.geev.s"),
        "lapack.geev.gflops": ratio(geev_flops_total, total["lapack.geev.s"]) / 1e9,
        "lapack.geev.share": ratio(total["lapack.geev.s"], wall),
        "dense_eig.eig.flops": per_pass("dense_eig.eig.flops"),
        "dense_eig.eig.K_max": maxima["dense_eig.eig.K"],
        "dense_eig.eig.self_s": per_pass("dense_eig.eig.self_s"),
        "dense_eig.eig.residual_max": maxima["dense_eig.eig.residual_max"],
        "dense_eig.eig.errors": per_pass("dense_eig.eig.errors"),
        "collocation.solve.self_s": per_pass("collocation.solve.self_s"),
        "collocation.solve.useful_ratio": ratio(total["collocation.solve.returned"],
                                                total["collocation.solve.K"]),
        "collocation.solve.real_ratio": ratio(total["dense_eig.eig.real"], total["dense_eig.eig.K"]),
        "collocation.assemble.self_s": per_pass("collocation.assemble.self_s"),
        "collocation.assemble.bytes": per_pass("collocation.assemble.bytes"),
        "sinc.build_deltas.s": per_pass("sinc.build_deltas.s"),
        "sinc.build_deltas.bytes": per_pass("sinc.build_deltas.bytes"),
        "sinc.build_grid.s": per_pass("sinc.build_grid.s"),
        "sinc.build_grid.calls": per_pass("sinc.build_grid.calls"),
        "sinc.interpolate.s": per_pass("sinc.interpolate.s"),
        "sinc.interpolate.kernel_evals": per_pass("sinc.interpolate.kernel_evals"),
        "coulomb.evaluate_radial.self_s": per_pass("coulomb.evaluate_radial.self_s"),
        "coulomb.state_overlap.s": per_pass("coulomb.state_overlap.s"),
        "coulomb.normalize.s": per_pass("coulomb.normalize.s"),
        "coulomb.normalize.calls": per_pass("coulomb.normalize.calls"),
        "coulomb.solve_states.self_s": per_pass("coulomb.solve_states.self_s"),
        "cli.main.self_s": per_pass("cli.main.self_s"),
        "cli.main.bytes_out": per_pass("cli.main.bytes_out"),
        "proc.cpu_s": cpu_s / passes,
        "proc.cpu_util": ratio(cpu_s, wall),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
