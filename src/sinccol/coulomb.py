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
At l = 0, where ln x has no forbidden region, the window keeps the grid's
left end, but once the states are resolved to roundoff the bordered pencil
(``collocation``) is solved only from z = -21.1 on, where its sinc part has
decayed by the same 17 decades (``_border_cut``); its states are returned
on the whole window, the border alone holding the nodes left of the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .collocation import (_COARSE_STEP, CollocationProblem, EigenPair, _level_estimate,
                          _window_ends, assemble, solve)
from .dense_eig import EigenSolveError, InfiniteLevelError, _validate_count
from .sinc import SincGrid, _is_integer, build_grid, interpolate

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
# WKB decay to the grid's end that lets the l = 0 pencil be cut: it keeps the
# states' amplitude there below about 1e-5, for WKB underestimates their
# decay by about a decade
_HELD_DECAY = 4.0 * math.log(10.0)


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
    return assemble(_flagship_grid(l, beta, d, M), log_coulomb_potential(l))


def _flagship_grid(l: int, beta: float, d: float, M: int) -> SincGrid:
    """The paper's grid of ``flagship_problem``, with its checks of l and beta."""
    if not _is_integer(l) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if not 0.5 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0.5, 1.0], got {beta}")
    return build_grid(alpha=l + 0.5, beta=beta, d=d, M=M)


def _border_cut(window: SincGrid, count: int, tail: float) -> int:
    """The offset in ``window`` of the first node at which the bordered l = 0
    pencil is solved.  The sinc part v - c omega of a state decays like
    e^(2z) |z| as z -> -inf, so it is solved from the first z = m a where that
    reaches _WINDOW_DECAY's 17 decades, keeping count + 1 sinc nodes at least.
    The solved sinc part decays so only for states resolved to roundoff;
    elsewhere the cut moves them above it (measured at M = 50..1500).  So the
    whole window is solved (offset 0) on a step above _COARSE_STEP, where the
    levels have not converged (R moved 1.5e-11 of its peak at a = 0.41), and
    unless the WKB decay ``tail`` from the highest level's outer turning
    point to the grid's end reaches _HELD_DECAY: a state the grid's right
    end truncates has its R moved by about 1e-8 of its amplitude there."""
    if window.a > _COARSE_STEP or tail < _HELD_DECAY:
        return 0
    z = window.indices * window.a
    first = int(np.argmax(np.exp(2.0 * z) * np.abs(z) >= math.exp(-_WINDOW_DECAY)))
    return max(0, min(first, window.size - count - 1))


def _border_extended(pair: EigenPair, grid: SincGrid) -> EigenPair:
    """``pair``, solved on the bordered pencil of a window of ``grid`` that ends
    where ``grid`` does (``_border_cut``), as a pair on all of ``grid``: the
    nodes left of the cut hold the border alone, f_m = c omega_m / sqrt(phi'(x_m))."""
    cut = grid.size - pair.coefficients.size
    head = pair.border * grid.dr[:cut] / np.sqrt(grid.phi1[:cut])
    return replace(pair, coefficients=np.concatenate((head, pair.coefficients)))


def _windowed_pairs(l: int, count: int, beta: float, d: float, M: int, *, vectors: bool = True):
    """The window of the paper's grid that holds the lowest ``count`` flagship
    pairs, and those pairs (module docstring), solved for their levels alone
    without ``vectors`` (``collocation.solve``)."""
    grid = _flagship_grid(l, beta, d, M)
    if _is_integer(count) and count > grid.size:
        raise ValueError(f"state n = {count - 1} needs more than the {grid.size} sinc points of "
                         f"the grid at l = {l}, M = {M}; increase M")
    _validate_count(count, grid.size)
    # formed directly: adding 1/(4x^2) to the l = 0 potential cancels ln x
    langer = np.square(l / grid.points) + np.log(grid.points)
    weights = grid.a / grid.phi1
    lo, hi, tail = _window_ends(langer, weights, _level_estimate(langer, weights, count - 1),
                                _WINDOW_DECAY)
    for _ in range(2):
        window = grid.window(lo - grid.M, hi - grid.M)
        cut = _border_cut(window, count, tail) if l == 0 else 0
        try:
            pairs = solve(assemble(grid.window(lo + cut - grid.M, hi - grid.M),
                                   log_coulomb_potential(l)), count, vectors=vectors)
        except InfiniteLevelError as exc:
            raise InfiniteLevelError(f"state n = {count - 1} has no finite level on the grid at "
                                     f"l = {l}, M = {M}; increase M") from exc
        held = _window_ends(langer, weights, pairs[-1].eigenvalue, _WINDOW_DECAY)
        if lo <= held[0] and held[1] <= hi:
            break
        lo, hi, tail = min(lo, held[0]), max(hi, held[1]), min(tail, held[2])
    return window, [_border_extended(pair, window) for pair in pairs]


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
    """Evaluate R(x) = x^(-1/2) * f(x) for a normalized state, x > 0.

    From the first node x_0 of the state's window on, f is the sinc
    interpolant of the nodal values.  Below x_0, where that interpolant is
    only the slow 1/t tail of the sum, R follows the class bound that sets
    the grid, R ~ x^(alpha - 1/2) = x^l near 0:
    R(x) = R(x_0) (x / x_0)^(alpha - 1/2), with R(x_0) = f(x_0)/sqrt(x_0)
    from the nodal value.  At l = 0 that is the constant R(x_0); at l >= 1
    x_0 lies 17 decades of WKB decay below the peak, and so does R there.
    Between nodes f carries the rounding of z = ln sinh x (``interpolate``),
    about eps |z|/a of its size there, which a decayed state does not show.
    """
    x_arr = np.asarray(x, dtype=float)
    x0 = solution.grid.points[0]
    R = interpolate(solution.grid, solution.coefficients, x_arr) / np.sqrt(x_arr)
    below = x_arr < x0
    if np.any(below):
        # x clamped to x_0, so that no x far above it overflows the power
        power = (np.minimum(x_arr, x0) / x0) ** (solution.grid.alpha - 0.5)
        R = np.where(below, solution.coefficients[0] / math.sqrt(x0) * power, R)[()]
    return R


def solve_states(l: int, count: int, beta: float = DEFAULT_BETA, d: float = DEFAULT_D,
                 M: int = DEFAULT_M) -> list[RadialSolution]:
    """Solve the flagship problem and normalize the lowest ``count`` states."""
    grid, pairs = _windowed_pairs(l, count, beta, d, M)
    return [normalize(pair, grid, l, n) for n, pair in enumerate(pairs)]


def state_overlap(a: RadialSolution, b: RadialSolution) -> float:
    """Sinc quadrature of int f_a f_b dx (equivalently int R_a R_b x dx).

    This is the inner product in which the continuous operator is
    self-adjoint, so distinct converged states of the same l are
    orthogonal up to discretization error.  The states may lie on
    different windows of one grid: every window keeps the grid's step a
    and logical indices, so an equal a means equal sinc points at equal
    indices.  The sum runs over the indices both windows hold, and the
    value is normalized by the f-norm of each state on its own window.
    """
    ga, gb = a.grid, b.grid
    if ga.a != gb.a:
        raise ValueError(f"state_overlap requires states on windows of one grid, got the "
                         f"steps a = {ga.a!r} and {gb.a!r}")
    # the shared logical indices lo..lo + count - 1 at their offsets in each window
    lo = max(-ga.M, -gb.M)
    count = max(min(ga.N, gb.N) - lo + 1, 0)
    sa, sb = slice(lo + ga.M, lo + ga.M + count), slice(lo + gb.M, lo + gb.M + count)
    wa, wb = ga.a / ga.phi1, gb.a / gb.phi1
    inner = float(np.sum(wa[sa] * a.coefficients[sa] * b.coefficients[sb]))
    na = math.sqrt(float(np.sum(wa * np.square(a.coefficients))))
    nb = math.sqrt(float(np.sum(wb * np.square(b.coefficients))))
    return inner / (na * nb)


def eigen_table(l_values: Sequence[int], n_count: int, beta: float = DEFAULT_BETA,
                d: float = DEFAULT_D, M: int = DEFAULT_M) -> np.ndarray:
    """Eigenvalue grid: entry [n, j] is lambda_n for l = l_values[j].

    The shifted parameterization is the constant offset LEVEL_SHIFT away
    and is left to the caller.  Only levels are wanted, so every direct
    solve stops at their accuracy (``collocation.solve``): they agree with
    those of ``solve_states`` to about 1e-15 relative.
    """
    table = np.empty((n_count, len(l_values)))
    for j, l in enumerate(l_values):
        pairs = _windowed_pairs(l, n_count, beta, d, M, vectors=False)[1]
        table[:, j] = [p.eigenvalue for p in pairs]
    return table
