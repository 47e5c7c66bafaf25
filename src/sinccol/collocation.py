"""Sinc collocation of -f'' + q(x) f = lambda f on (0, inf).

Enforcing the equation at the sinc points turns it into a dense real
nonsymmetric matrix eigenproblem.  With the chain rule factors phi' and
phi'' expressed through e^(-2ma), the paper's matrix is

    A[n, m] = q(x_m) d0[n, m] + (e^(-2ma)/a) d1[n, m]
              - ((1 + e^(-2ma))/a^2) d2[n, m],

where the exponential prefactors are attached to the column (summation)
index m.  Because d1 is antisymmetric and d2 symmetric, this matrix is
exactly the transpose of the system satisfied by the nodal samples
f(x_m), in which the prefactors sit on the row (collocation) index with
the opposite d1 orientation.  Both have identical spectra.

This matrix is the reproduction baseline, and ``CollocationProblem.matrix``
builds it when it is accessed; ``solve`` never reads it.  Its column
factors grow like e^(2Ma) (1.7e63 at l = 0, M = 500), which swamps the
low eigenvalues in the backward error of any nonsymmetric eigensolver.
An assembled problem holds instead the nodal data of the symmetric
(Liouville) form of the same collocation scheme (Eggert, Jarratt & Lund,
J. Comput. Phys. 69 (1987) 209).  Writing f = (phi')^(-1/2) v and
u = tanh^2(x) = 1/phi'^2, the equation becomes -v'' + g v = lambda u v in
z = phi(x) with

    g = u q + (1 - u)(1 + 3u)/4,

and collocation gives the symmetric-definite pencil

    (-d2/a^2 + diag(g)) v = lambda diag(u) v,

whose entries stay near 1/a^2.  ``solve`` takes its lowest pairs and
returns the nodal values f(x_m) = v_m / sqrt(phi'(x_m)).

On a grid with alpha = 1/2 (critical coupling, f ~ x^(1/2)) v tends to a
nonzero constant as z -> -inf, which no truncated sinc sum holds.  There
the pencil is bordered with one boundary basis function
omega(z) = 1/(1 + e^(2z)) (Stenger, Numerical Methods Based on Sinc and
Analytic Functions, 1993) by Rayleigh-Ritz: its entries are the integrals
of v' w' + g v w and u v w, evaluated with the grid's own sinc
quadrature, using omega' = -2 omega (1 - omega) and
omega'' = 4 omega (1 - omega)(1 - 2 omega).  For alpha > 1/2 the
function is left out: g tends to l^2 at the left end and the integral of
g omega^2 diverges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from scipy.linalg import toeplitz

from .dense_eig import eig, eigh_pencil  # eig is unused here; perfbench/layers.py wraps this name
from .sinc import SincGrid, _d2_column, _evaluate_on_points, build_deltas, interpolate

__all__ = [
    "CollocationProblem",
    "EigenPair",
    "assemble",
    "solve",
    "reconstruct",
]


@dataclass(frozen=True)
class CollocationProblem:
    """A potential discretized on a sinc grid, as the symmetric pencil of
    the module docstring.

    ``potential`` is the full multiplicative term of the reduced radial
    equation, e.g. (4*l^2 - 1)/(4*x^2) + V(x).  ``g`` and ``weight``
    (u = tanh^2 x) are sampled at the sinc points; ``omega`` holds the
    boundary function at the sinc points when the pencil is bordered with
    it, and is None otherwise.
    """

    grid: SincGrid
    potential: Callable[[np.ndarray], np.ndarray]
    g: np.ndarray
    weight: np.ndarray
    omega: np.ndarray | None

    @property
    def matrix(self) -> np.ndarray:
        """The paper's dense K x K collocation matrix, built on each access."""
        grid = self.grid
        pot_vals = _evaluate_on_points(self.potential, grid.points)
        deltas = build_deltas(grid)
        e2m = -grid.phi2  # e^(-2ma), stored on the grid as phi''(x_m) = -e^(-2ma)
        # diag(q) + d1 * col1 - d2 * col2, formed in the buffers of the freshly
        # built d1 and d2 so that the build holds no K x K temporaries
        matrix = deltas.d1
        matrix *= (e2m / grid.a)[None, :]
        matrix[np.diag_indices(grid.size)] += pot_vals  # d1 is zero on the diagonal
        scaled_d2 = deltas.d2
        scaled_d2 *= ((1.0 + e2m) / grid.a**2)[None, :]
        matrix -= scaled_d2
        if not np.all(np.isfinite(matrix)):
            raise ValueError("collocation matrix has nonfinite entries; reduce M")
        return matrix


@dataclass(frozen=True)
class EigenPair:
    """One retained eigenpair of a collocation problem.

    ``coefficients`` holds the nodal values f(x_m) with the
    largest-magnitude entry normalized to positive sign.  ``residual`` is
    the relative residual reported by the pencil eigensolver.
    """

    eigenvalue: float
    coefficients: np.ndarray
    residual: float


def assemble(grid: SincGrid, potential: Callable[[np.ndarray], np.ndarray]) -> CollocationProblem:
    """Sample the symmetric pencil of ``potential`` on ``grid``.

    The potential must be finite at every sinc point.
    """
    pot_vals = _evaluate_on_points(potential, grid.points)
    if not np.all(np.isfinite(pot_vals)):
        bad = grid.points[~np.isfinite(pot_vals)][0]
        raise ValueError(f"potential is not finite at sinc point x={bad!r}")

    e2m = -grid.phi2  # e^(-2ma)
    weight = 1.0 / (1.0 + e2m)  # tanh^2(x_m) = 1/phi'(x_m)^2
    omega = e2m / (1.0 + e2m)  # 1/(1 + e^(2ma)) = 1 - weight, without cancellation
    return CollocationProblem(grid=grid, potential=potential,
                              g=weight * pot_vals + omega * (1.0 + 3.0 * weight) / 4.0,
                              weight=weight, omega=omega if grid.alpha == 0.5 else None)


def _pencil_matrices(problem: CollocationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense left and right matrices of the (possibly bordered) pencil,
    Fortran-ordered for LAPACK."""
    grid = problem.grid
    K = grid.size
    n = K if problem.omega is None else K + 1
    left = np.zeros((n, n), order="F")
    left[:K, :K] = toeplitz(-_d2_column(K) / grid.a**2)
    right = np.zeros((n, n), order="F")
    diag = np.arange(K)
    left[diag, diag] += problem.g
    right[diag, diag] = problem.weight
    if problem.omega is not None:
        u, w, g = problem.weight, problem.omega, problem.g
        dw = -2.0 * w * u  # omega' = -2 omega (1 - omega), and 1 - omega = u
        ddw = 4.0 * w * u * (u - w)
        left[K, :K] = left[:K, K] = g * w - ddw
        left[K, K] = np.sum(dw * dw + g * w * w)
        right[K, :K] = right[:K, K] = u * w
        right[K, K] = np.sum(u * w * w)
    return left, right


def _positive_peak(vec: np.ndarray) -> np.ndarray:
    vec = np.array(vec, dtype=float)
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec
    return vec


def solve(problem: CollocationProblem, count: int) -> list[EigenPair]:
    """Return the ``count`` lowest eigenpairs, sorted ascending.

    The pairs are those of the symmetric pencil (see module docstring).
    Coefficient vectors are the nodal values f(x_m), sign-normalized so
    the largest-magnitude entry is positive.  A left matrix that is not
    positive definite, which means a non-positive lowest level, is an
    EigenSolveError, and so is a requested eigenvalue that is not finite.
    """
    grid = problem.grid
    K = grid.size
    if not 1 <= count <= K:
        raise ValueError(f"count must lie in [1, {K}], got {count}")
    decomp = eigh_pencil(lambda: _pencil_matrices(problem), count)
    V = decomp.eigenvectors
    nodal = V[:K]
    if problem.omega is not None:
        nodal = nodal + problem.omega[:, None] * V[K][None, :]
    f = nodal / np.sqrt(grid.phi1)[:, None]
    return [EigenPair(eigenvalue=float(lam), coefficients=_positive_peak(f[:, j]),
                      residual=float(decomp.residuals[j]))
            for j, lam in enumerate(decomp.eigenvalues)]


def reconstruct(grid: SincGrid, pair: EigenPair, x: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the eigenfunction interpolant of ``pair`` at x > 0."""
    return interpolate(grid, pair.coefficients, x)
