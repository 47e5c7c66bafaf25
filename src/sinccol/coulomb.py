"""The logarithmic Coulomb problem in two space dimensions.

In dimensionless variables the radial Schroedinger equation for angular
momentum l, after substituting R(x) = x^(-1/2) f(x), reads

    -f''(x) + [ (4*l^2 - 1)/(4*x^2) + ln(x) ] f(x) = lambda * f(x).

Near the origin the physical solution behaves like x^(l + 1/2), fixing
the grid exponent alpha = l + 1/2; at infinity it falls off like
e^(-x ln x), so any decay exponent beta <= 1 bounds it.  A second,
shifted eigenvalue parameterization differs from lambda by the constant
Euler-Mascheroni gamma + ln(2); both are carried on every solution.

``solve_states`` and ``eigen_table`` solve on a window of the paper's
grid: M sets the step, the states set the ends.  The window holds the
points where the highest level's WKB decay in Langer's q = l^2/x^2 + ln(x)
(Phys. Rev. 51 (1937) 669) stays below 17 decades.  The level is estimated
by Bohr-Sommerfeld, then checked against the solve, which is repeated once
on the hull of both windows if they differ.  No window extends the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .collocation import CollocationProblem, EigenPair, assemble, solve
from .dense_eig import EigenSolveError, _validate_count
from .sinc import SincGrid, build_grid, interpolate

__all__ = [
    "EULER_GAMMA",
    "LEVEL_SHIFT",
    "DEFAULT_D",
    "DEFAULT_BETA",
    "DEFAULT_M",
    "RadialSolution",
    "log_coulomb_potential",
    "flagship_problem",
    "normalize",
    "evaluate_radial",
    "solve_states",
    "state_overlap",
    "eigen_table",
]

EULER_GAMMA = 0.5772156649015329
LEVEL_SHIFT = EULER_GAMMA + math.log(2.0)  # shifted eigenvalue offset, 1.2703628454614782

DEFAULT_D = math.pi / 4
DEFAULT_BETA = 1.0
DEFAULT_M = 500

NORM_TOL = 1e-8
_WINDOW_DECAY = 17.0 * math.log(10.0)


@dataclass(frozen=True)
class RadialSolution:
    """Normalized radial bound state (l, n).

    ``coefficients`` are nodal values f(x_m) scaled so that the radial
    function R(x) = x^(-1/2) f(x) has unit norm, int_0^inf R^2 dx = 1.
    ``eigenvalue_shifted`` is eigenvalue + LEVEL_SHIFT; ``norm_residual``
    is |recomputed norm - 1| after scaling.
    """

    l: int
    n: int
    eigenvalue: float
    eigenvalue_shifted: float
    grid: SincGrid
    coefficients: np.ndarray
    norm_residual: float


def log_coulomb_potential(l: int) -> Callable[[np.ndarray], np.ndarray]:
    """Full multiplicative term (4*l^2 - 1)/(4*x^2) + ln(x) for momentum l."""
    c = (4 * l * l - 1) / 4.0

    def potential(x):
        return c / np.square(x) + np.log(x)

    return potential


def flagship_problem(l: int, beta: float = DEFAULT_BETA, d: float = DEFAULT_D,
                     M: int = DEFAULT_M) -> CollocationProblem:
    """Assemble the logarithmic Coulomb problem for angular momentum l.

    The grid exponent is fixed to alpha = l + 1/2 by the near-origin
    behavior of the physical solution; beta is restricted to [1/2, 1].
    """
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if not 0.5 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0.5, 1.0], got {beta}")
    grid = build_grid(alpha=l + 0.5, beta=beta, d=d, M=M)
    return assemble(grid, log_coulomb_potential(l))


def _level_estimate(langer: np.ndarray, weights: np.ndarray, n: int) -> float:
    """lambda_n where int sqrt(max(lambda - q, 0)) dx, the sinc quadrature
    with ``weights`` over the Langer q, reaches pi (n + 1/2), by bisection."""
    def phase(lam):
        return np.sqrt(np.maximum(lam - langer, 0.0)) @ weights

    lo = float(np.min(langer))
    hi = lo + 1.0
    while phase(hi) < math.pi * (n + 0.5):
        lo, hi = hi, 2.0 * hi - lo
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if phase(mid) < math.pi * (n + 0.5) else (lo, mid)
    return hi


def _window_ends(langer: np.ndarray, weights: np.ndarray, lam: float) -> tuple[int, int]:
    """Offsets of the first and last point whose WKB decay int sqrt(q - lambda)
    dx from the outermost turning points of the Langer q is below _WINDOW_DECAY."""
    allowed = np.flatnonzero(langer <= max(lam, np.min(langer)))
    kappa = np.sqrt(np.maximum(langer - lam, 0.0)) * weights
    left = np.count_nonzero(np.cumsum(kappa[allowed[0]::-1]) < _WINDOW_DECAY)
    right = np.count_nonzero(np.cumsum(kappa[allowed[-1]:]) < _WINDOW_DECAY)
    return int(allowed[0]) - left + 1, int(allowed[-1]) + right - 1


def _windowed_pairs(l: int, count: int, beta: float, d: float, M: int):
    """The window of the paper's grid that holds the lowest ``count`` flagship
    pairs, and those pairs (module docstring)."""
    grid = flagship_problem(l, beta=beta, d=d, M=M).grid
    _validate_count(count, grid.size)
    # formed directly: adding 1/(4x^2) to the l = 0 potential cancels ln x
    langer = np.square(l / grid.points) + np.log(grid.points)
    weights = grid.a / grid.phi1
    lo, hi = _window_ends(langer, weights, _level_estimate(langer, weights, count - 1))
    for _ in range(2):
        window = grid.window(lo - grid.M, hi - grid.M)
        pairs = solve(assemble(window, log_coulomb_potential(l)), count)
        held = _window_ends(langer, weights, pairs[-1].eigenvalue)
        if lo <= held[0] and held[1] <= hi:
            break
        lo, hi = min(lo, held[0]), max(hi, held[1])
    return window, pairs


def _radial_norm_sq(grid: SincGrid, coefficients: np.ndarray) -> float:
    # int R^2 dx = int f^2/x dx by sinc quadrature; the integrand is
    # needed at sinc points only, so it comes straight from the nodal
    # coefficients with no interpolation.
    f2 = np.square(coefficients)
    return float(grid.a * np.sum(f2 / (grid.points * grid.phi1)))


def normalize(pair: EigenPair, grid: SincGrid, l: int, n: int) -> RadialSolution:
    """Scale an eigenpair so the radial function R carries unit norm."""
    coeffs = np.asarray(pair.coefficients, dtype=float)
    if not np.any(coeffs):
        raise ValueError("cannot normalize identically zero coefficients")
    norm_sq = _radial_norm_sq(grid, coeffs)
    if not (np.isfinite(norm_sq) and norm_sq > 0.0):
        raise EigenSolveError(f"radial norm is not a positive finite number: {norm_sq!r}")
    scaled = coeffs / math.sqrt(norm_sq)
    residual = abs(math.sqrt(_radial_norm_sq(grid, scaled)) - 1.0)
    if residual > NORM_TOL:
        raise EigenSolveError(f"normalization residual {residual:.3e} exceeds {NORM_TOL:.1e}")
    lam = pair.eigenvalue
    return RadialSolution(
        l=int(l),
        n=int(n),
        eigenvalue=lam,
        eigenvalue_shifted=lam + LEVEL_SHIFT,
        grid=grid,
        coefficients=scaled,
        norm_residual=residual,
    )


def evaluate_radial(solution: RadialSolution, x: np.ndarray | float) -> np.ndarray | float:
    """Evaluate R(x) = x^(-1/2) * f(x) for a normalized state, x > 0."""
    f = interpolate(solution.grid, solution.coefficients, x)
    return f / np.sqrt(np.asarray(x, dtype=float))


def solve_states(l: int, count: int, beta: float = DEFAULT_BETA, d: float = DEFAULT_D,
                 M: int = DEFAULT_M) -> list[RadialSolution]:
    """Solve the flagship problem and normalize the lowest ``count`` states."""
    grid, pairs = _windowed_pairs(l, count, beta, d, M)
    return [normalize(pair, grid, l, n) for n, pair in enumerate(pairs)]


def state_overlap(a: RadialSolution, b: RadialSolution) -> float:
    """Sinc quadrature of int f_a f_b dx (equivalently int R_a R_b x dx).

    This is the inner product in which the continuous operator is
    self-adjoint, so distinct converged states of the same l are
    orthogonal up to discretization error.  Both states must share a
    grid.  The value is normalized by the f-norms of the two states.
    """
    ga, gb = a.grid, b.grid
    if ga.size != gb.size or ga.a != gb.a or ga.M != gb.M:
        raise ValueError("state_overlap requires states on the same grid")
    w = ga.a / ga.phi1
    inner = float(np.sum(w * a.coefficients * b.coefficients))
    na = math.sqrt(float(np.sum(w * np.square(a.coefficients))))
    nb = math.sqrt(float(np.sum(w * np.square(b.coefficients))))
    return inner / (na * nb)


def eigen_table(l_values: Sequence[int], n_count: int, beta: float = DEFAULT_BETA,
                d: float = DEFAULT_D, M: int = DEFAULT_M) -> np.ndarray:
    """Eigenvalue grid: entry [n, j] is lambda_n for l = l_values[j].

    The shifted parameterization is the constant offset LEVEL_SHIFT away
    and is left to the caller.
    """
    table = np.empty((n_count, len(l_values)))
    for j, l in enumerate(l_values):
        table[:, j] = [p.eigenvalue for p in _windowed_pairs(l, n_count, beta, d, M)[1]]
    return table
