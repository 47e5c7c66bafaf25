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
returns the nodal values f(x_m) = v_m / sqrt(phi'(x_m)).  It factors the
shifted left matrix -d2/a^2 + diag(g - sigma u), sigma = max(0, min g/u),
which is positive definite: the sinc matrix -d2 has its eigenvalues in
(0, pi^2] (Stenger, 1993) and g - sigma u >= 0.  So sigma lies below the
lowest level, and Lanczos searches 1/(lambda - sigma), whose low end is
far less crowded than that of 1/lambda (spectral transformation, Ericsson
& Ruhe, Math. Comp. 35 (1980) 1251).

On a grid with alpha = 1/2 (critical coupling, f ~ x^(1/2)) v tends to a
nonzero constant as z -> -inf, which no truncated sinc sum holds.  There
the pencil is bordered with one boundary basis function
omega(z) = 1/(1 + e^(2z)) (Stenger, Numerical Methods Based on Sinc and
Analytic Functions, 1993) by Rayleigh-Ritz: its entries are the integrals
of v' w' + g v w and u v w, evaluated with the grid's own sinc
quadrature, using omega' = -2 omega (1 - omega) and
omega'' = 4 omega (1 - omega)(1 - 2 omega).  For alpha > 1/2 the
function is left out: g tends to l^2 at the left end and the integral of
g omega^2 diverges.  The bordered pencil is not shifted (sigma = 0): there
g/u tends to ln x + 1/2, unbounded below, and the border is no part of
the Toeplitz block.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse
from numpy.lib.stride_tricks import as_strided

# eig is unused here; perfbench/layers.py wraps this name
from .dense_eig import _validate_count, eig, eigh_pencil
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
        deltas = build_deltas(grid)
        e2m = -grid.phi2  # e^(-2ma), stored on the grid as phi''(x_m) = -e^(-2ma)
        # the factors scale the columns
        matrix = (np.diag(_evaluate_on_points(self.potential, grid.points))
                  + deltas.d1 * (e2m / grid.a) - deltas.d2 * ((1.0 + e2m) / grid.a**2))
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


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class _LeftStructure:
    """The pencil's left matrix by its pieces: the symmetric Toeplitz block
    T[i, j] = column[|i - j|], plus diag(g), and at alpha = 1/2 the border
    row and column ``border`` = g omega - omega'' with ``corner`` at (K, K).

    ``dense`` fills the n x n matrix the eigensolve factors; the product
    and the infinity norm of the residual contract come from the pieces
    alone, in O(K log K) per column and O(K).
    """

    column: np.ndarray
    g: np.ndarray
    border: np.ndarray | None
    corner: float

    @classmethod
    def of(cls, problem: CollocationProblem) -> _LeftStructure:
        column = -_d2_column(problem.grid.size) / problem.grid.a**2
        if problem.omega is None:
            return cls(column, problem.g, None, 0.0)
        u, w, g = problem.weight, problem.omega, problem.g
        dw = -2.0 * w * u  # omega' = -2 omega (1 - omega), and 1 - omega = u
        ddw = 4.0 * w * u * (u - w)
        return cls(column, g, g * w - ddw, float(np.sum(dw * dw + g * w * w)))

    def dense(self) -> np.ndarray:
        """The n x n left matrix, Fortran-ordered for LAPACK."""
        K = self.column.size
        n = K if self.border is None else K + 1
        left = np.zeros((n, n), order="F")
        # copied from a strided view of the 2K - 1 distinct entries:
        # t[K - 1 + d] is entry (i, i + d)
        t = np.concatenate((self.column[:0:-1], self.column))
        left[:K, :K] = as_strided(t[K - 1:], shape=(K, K), strides=(-t.itemsize, t.itemsize),
                                  writeable=False)
        diag = np.arange(K)
        left[diag, diag] += self.g
        if self.border is not None:
            left[K, :K] = left[:K, K] = self.border
            left[K, K] = self.corner
        return left

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        """left @ V for an n x k array V: T by its circulant embedding of
        power-of-two length L >= 2K - 1 through the real FFT (Chan & Ng,
        SIAM Review 38 (1996) 427), then diag(g) and the border."""
        K = self.column.size
        L = 1 << (2 * K - 2).bit_length()
        circulant = np.zeros(L)
        circulant[:K] = self.column
        circulant[L - K + 1:] = self.column[:0:-1]
        X = V[:K]
        out = np.fft.irfft(np.fft.rfft(circulant)[:, None] * np.fft.rfft(X, n=L, axis=0),
                           n=L, axis=0)[:K]
        out += self.g[:, None] * X
        if self.border is None:
            return out
        out += self.border[:, None] * V[K][None, :]
        return np.vstack((out, self.border @ X + self.corner * V[K]))

    def norm_inf(self) -> float:
        """max_i sum_j |left[i, j]|, exactly: with C = cumsum |column|, row
        i of T + diag(g) sums to |column[0] + g_i| + (C[i] - C[0])
        + (C[K - 1 - i] - C[0])."""
        C = np.cumsum(np.abs(self.column))
        rows = np.abs(self.column[0] + self.g) + (C - C[0]) + (C[::-1] - C[0])
        if self.border is None:
            return float(rows.max())
        rows += np.abs(self.border)
        return float(max(rows.max(), np.sum(np.abs(self.border)) + abs(self.corner)))


def _pencil_matrices(problem: CollocationProblem) -> tuple[
        np.ndarray, scipy.sparse.csr_array, Callable[[np.ndarray], np.ndarray], float]:
    """The (possibly bordered) pencil: the dense left matrix,
    Fortran-ordered for LAPACK, the sparse right one, diag(u) or its
    arrowhead border, and the product V -> left @ V and ||left||_inf of
    the residual contract, computed from ``_LeftStructure`` without the
    dense matrix.

    A left matrix larger than the machine's physical memory is a
    ValueError, raised before anything is allocated.
    """
    grid = problem.grid
    K = grid.size
    n = K if problem.omega is None else K + 1
    need, have = 8 * n * n, _physical_memory_bytes()
    if need > have:
        raise ValueError(f"the pencil at K = {K} needs {need / 1e9:.3g} GB, but this machine has "
                         f"{have / 1e9:.3g} GB of memory; reduce M")
    structure = _LeftStructure.of(problem)
    # right as (value, row, column) triplets: diag(u), then the border
    diag = np.arange(K)
    triplets = [(problem.weight, diag, diag)]
    if problem.omega is not None:
        border = problem.weight * problem.omega
        edge = np.full(K + 1, K)
        triplets += [(border, diag, edge[:K]),
                     (np.append(border, np.sum(border * problem.omega)), edge, np.arange(K + 1))]
    values, rows, columns = map(np.concatenate, zip(*triplets))
    right = scipy.sparse.csr_array((values, (rows, columns)), shape=(n, n))
    return structure.dense(), right, structure.__matmul__, structure.norm_inf()


def _safe_shift(problem: CollocationProblem) -> float:
    """sigma = max(0, min g/u) for the unbordered pencil, 0 for the bordered
    one: a lower bound on the lowest level (see module docstring)."""
    if problem.omega is not None:
        return 0.0
    return max(0.0, float(np.min(problem.g / problem.weight)))


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
    _validate_count(count, K)
    left, right, left_times, left_norm = _pencil_matrices(problem)
    decomp = eigh_pencil(left, right, count, left_times, left_norm, shift=_safe_shift(problem))
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
