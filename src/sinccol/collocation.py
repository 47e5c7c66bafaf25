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
J. Comput. Phys. 69 (1987) 209).  On the grid of a map x = psi(z),
writing f = psi'^(1/2) v, u = psi'^2 and r = ln psi', the equation
becomes -v'' + g v = lambda u v in z with

    g = u q + r'^2/4 - r''/2    (u q + (1 - u)(1 + 3u)/4 on z = ln sinh x),

where the grid, not the problem, holds u and r'^2/4 - r''/2 at its nodes
(``sinc.SincGrid``), and collocation gives the symmetric-definite pencil

    (-d2/a^2 + diag(g)) v = lambda diag(u) v,

whose entries stay near 1/a^2.  ``solve`` takes its lowest pairs and
returns the nodal values f(x_m) = v_m / sqrt(phi'(x_m)).  ``_Pencil``
is that pencil as it is solved, shifted by sigma = max(0, min g/u): left
T + rest, with T = -d2/a^2 and rest = diag(g - sigma u) formed once, and
right R = diag(u); ``solve`` adds sigma back to each level.  That left
matrix is positive definite: the sinc matrix -d2 has its eigenvalues in
(0, pi^2] (Stenger, 1993) and g - sigma u >= 0.  So sigma lies below the
lowest level, and Lanczos searches 1/(lambda - sigma), whose low end is
far less crowded than that of 1/lambda (spectral transformation, Ericsson
& Ruhe, Math. Comp. 35 (1980) 1251).  Only two methods solve a pencil:
``_Pencil.eigh`` hands its dense left and R to the Cholesky-Lanczos
kernel ``dense_eig.lowest``, ``_Pencil.ritz`` solves a Rayleigh-Ritz
projection, and both check their pairs by ``dense_eig.verified`` from
products and norms taken from the pencil's pieces.

On a grid with alpha = 1/2 (critical coupling, f ~ x^(1/2);
``SincGrid.bordered``) v tends to a nonzero constant as z -> -inf, which no
truncated sinc sum holds.  There the pencil is bordered with one boundary
basis function omega(z) = 1/(1 + e^(2z)) = r'(z), the grid's ``dr``
(Stenger, Numerical Methods Based on Sinc and Analytic Functions, 1993)
by Rayleigh-Ritz: its entries are the integrals of v' w' + g v w and
u v w, evaluated with the grid's own sinc quadrature, using
omega' = -2 omega (1 - omega) and omega'' = 4 omega (1 - omega)(1 - 2 omega).
For alpha > 1/2 the function is left out: g tends to l^2 at the left end
and the integral of g omega^2 diverges.  The bordered pencil is not
shifted (sigma = 0): there g/u tends to ln x + 1/2, unbounded below, and
the border is no part of the Toeplitz block.  rest and R are then
arrowheads: diag(g) and diag(u) with the border row and column and the
corner.  Each pair carries its border coefficient c (``EigenPair.border``),
so a pencil solved on the right part of a window has its f continued over
the rest by the border alone, c omega/sqrt(phi') (``coulomb`` cuts the
l = 0 pencil so, and continues its pairs by ``_border_extended``).

The paper's M sets a step far finer than the states need: the flagship
levels converge like exp(-8.5/a) and reach roundoff by a = 0.2, while
M = 500 gives a = 0.047 at l = 4.  So ``solve`` is a two-grid eigenvalue
scheme (Xu & Zhou, Math. Comp. 70 (2001) 17), all of it in ``_two_grid``:
it solves a small pencil of the same potential on a coarse grid, lifts its
vectors onto the given grid's nodes, and finishes by Rayleigh-Ritz on the
given pencil from its O(K log K) products, so the given grid's dense
matrix is never built.  An unbordered pencil takes that path at any step
a <= _COARSE_STEP whose DE grid holds the states (``_holds``) and whose
Ritz pairs pass the gate; a bordered one, and any other that ``_two_grid``
returns None for, is solved directly.

The coarse grid is that of the double-exponential (DE) map x = psi(t) =
ln(1 + e^(sinh t)) (Mori & Sugihara, J. Comput. Appl. Math. 127 (2001) 287;
Gaudreau, Slevinsky & Safouhi, J. Math. Phys. 57 (2016) 043505): the nodes
t = m _DE_STEP inside the given grid's x-range (``sinc._de_grid``).  There
the states decay double-exponentially in t rather than like e^(-x ln x) in
z, so 132 to 154 nodes hold five flagship states at l = 1..4, whatever M,
against the 443 to 623 that a step of 0.2 in z takes at M = 500.
``assemble`` forms its pencil as on any grid, shifted alike and positive
definite on the same grounds.  The lift (``_de_lift``) sums the DE sinc
series at each fine node's t_j by the series ``interpolate`` sums
(``sinc._sinc_series``), in O(K) per vector and no K x K_DE matrix, and
turns v into f and f into the given grid's v by sqrt(psi'(t_j) phi'(x_j)).
A bordered pencil has no DE grid: its border, sqrt(x) e^(-x)/sqrt(psi')
there, decays only like e^(t/2) left of the window, so its corner
integrals would need a tail beyond it.

Products, norms and the projection come from the pencil's pieces, T by the
FFT and rest and R in O(K).  ``_two_grid`` has one pre-filter and one
certificate.  The pre-filter, ``_holds``, refuses a DE grid that does not
hold the WKB window of the highest state, _DECAYED's 12 decades of decay
past its turning points, which it finds by Bohr-Sommerfeld on the DE
pencil's g and u before that pencil is solved (a state the grid's end
truncates; ``_window_ends`` is the decay sum that also sets ``coulomb``'s
17-decade window).  The certificate is the Ritz gate: pairs that miss the
residual contract or whose residual is above _RITZ_RESIDUAL are refused, and
so is a state the DE step does not resolve, whose truncated coarse vector
lifts to such a pair.  Any failure on the way (a DE grid that cannot be
formed, a pencil that cannot be solved, a dependent lifted basis) refuses
too.  The memory check in ``_Pencil.dense_left`` guards the one dense
matrix that is built: the DE grid's on the two-grid path, the given grid's
on the direct one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

# eig is unused here; perfbench/layers.py wraps this name
from .dense_eig import (EigenDecomposition, EigenSolveError, _validate_count, eig, lowest,
                        verified)
from .sinc import (SincGrid, _d2_column, _de_grid, _de_inverse, _de_map, _evaluate_on_points,
                   _sinc_series, build_deltas, interpolate)

# The two-grid solve runs on a step a <= _COARSE_STEP only, and ``coulomb``
# cuts the bordered pencil only there: the flagship's levels converge like
# exp(-8.5/a) in the step, to roundoff by a = 0.2, so a finer step buys no
# digit, only a pencil larger than its states need; not a user setting.
_COARSE_STEP = 0.2
# The step h of the DE grid t = m h that gives an unbordered pencil its coarse
# basis.  Chosen over the Ritz solves of l = 1..4, M = 500, 1000, 2500 and
# counts 1, 5, 10: at h = 0.06 each ended below _RITZ_RESIDUAL (worst 6.1e-14)
# but count 10 at M = 500, l = 1, 2, where the paper's grid truncates the
# states and no step serves.  h = 0.05 also passed (worst 5.3e-15) but cost
# 1 to 7 ms more per paper table; h = 0.07 lost count 10 everywhere else to
# Ritz residuals of 8.3e-12 to 8.6e-12 at l = 1, 2 and 5.1e-11 to 7.4e-11 at
# l = 3, 4.  A lost case costs a direct solve, never a wrong answer.
_DE_STEP = 0.06
# A grid holds a state when the state's WKB decay from its turning points to
# each end of the grid reaches this fraction, 12 decades: the window that
# ``_holds`` asks of the DE grid.
_DECAYED = 1e-12
# Ritz pairs stand in for the direct ones only at a roundoff-level residual:
# direct pairs reach about 1e-16 and Ritz pairs from a resolving coarse basis
# 4e-16 to 2e-14, while the error in R runs a few times the residual (ten
# states at l = 1, M = 1000 on a DE step of 0.07: 8.3e-12, and 2e-11 of the
# peak in R).
_RITZ_RESIDUAL = 1e-13

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
    equation, e.g. (4*l^2 - 1)/(4*x^2) + V(x), and ``g`` is sampled from it
    at the sinc points.  The map's data belong to the grid: u = psi'^2 is
    ``grid.weight``, and on a ``grid.bordered`` grid the boundary function
    omega is ``grid.dr``.
    """

    grid: SincGrid
    potential: Callable[[np.ndarray], np.ndarray]
    g: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The paper's dense K x K collocation matrix, built on each access."""
        grid = self.grid
        deltas = build_deltas(grid)
        e2m = np.exp(-2.0 * (grid.indices * grid.a))  # e^(-2ma), as build_grid forms it
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
    the relative residual reported by the pencil eigensolver.  ``border``
    is the coefficient c of the boundary function in f, whose part
    c omega/sqrt(phi') it is, at the scale and sign of ``coefficients``; 0
    on an unbordered pencil.
    """

    eigenvalue: float
    coefficients: np.ndarray
    residual: float
    border: float = 0.0


def assemble(grid: SincGrid, potential: Callable[[np.ndarray], np.ndarray]) -> CollocationProblem:
    """Sample the symmetric pencil of ``potential`` on ``grid``: g = u q plus
    the grid's Liouville term.

    The potential must be finite at every sinc point.
    """
    pot_vals = _evaluate_on_points(potential, grid.points)
    if not np.all(np.isfinite(pot_vals)):
        bad = grid.points[~np.isfinite(pot_vals)][0]
        raise ValueError(f"potential is not finite at sinc point x={bad!r}")
    return CollocationProblem(grid=grid, potential=potential,
                              g=grid.weight * pot_vals + grid.liouville)


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _toeplitz_times(column: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T @ X for the symmetric K x K Toeplitz T[i, j] = column[|i - j|] and a
    K x k array X: T by its circulant embedding of power-of-two length
    L >= 2K - 1 through the real FFT (Chan & Ng, SIAM Review 38 (1996) 427),
    so the product is a linear convolution, with no wrap-around."""
    K = column.size
    L = 1 << (2 * K - 2).bit_length()
    circulant = np.zeros(L)
    circulant[:K] = column
    circulant[L - K + 1:] = column[:0:-1]
    return np.fft.irfft(np.fft.rfft(circulant)[:, None] * np.fft.rfft(X, n=L, axis=0),
                        n=L, axis=0)[:K]


@dataclass(frozen=True)
class _Arrowhead:
    """The symmetric n x n matrix with diagonal ``d`` and, at alpha = 1/2,
    the border row and column ``border`` with ``corner`` at (K, K), so
    n = K + 1; without a border n = K.  Applied as O(K) array operations."""

    d: np.ndarray
    border: np.ndarray | None = None
    corner: float = 0.0

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        """self @ V for an n-vector or an n x k array V."""
        K = self.d.size
        X = V[:K]
        d = self.d if V.ndim == 1 else self.d[:, None]
        if self.border is None:
            return d * X
        out = np.empty(V.shape)
        out[:K] = d * X + (self.border if V.ndim == 1 else self.border[:, None]) * V[K]
        out[K] = self.border @ X + self.corner * V[K]
        return out

    def norm_inf(self, rows: np.ndarray | None = None) -> float:
        """max_i sum_j |self[i, j]|, or that of the matrix with the same
        border and corner whose first K rows, the border column left out,
        sum in magnitude to ``rows``."""
        rows = np.abs(self.d) if rows is None else rows
        if self.border is None:
            return float(rows.max())
        rows = rows + np.abs(self.border)
        return float(max(rows.max(), np.sum(np.abs(self.border)) + abs(self.corner)))


@dataclass(frozen=True)
class _Pencil:
    """The pencil of a problem as it is solved (module docstring):

        left = T + rest,    right = R,

    T the Toeplitz block T[i, j] = column[|i - j|] = -d2/a^2, ``rest`` the
    arrowhead of left - T, diag(g - sigma u) or, bordered, that of g (border
    g omega - omega'', corner sum omega'^2 + g omega^2), and R that of u
    (border u omega, corner sum u omega^2).  ``dense_left`` is the one dense
    build; products, norms and the Rayleigh-Ritz projection come from the
    pieces, in O(K log K) per column and O(K).
    """

    column: np.ndarray
    a: float
    sigma: float
    rest: _Arrowhead
    R: _Arrowhead

    @classmethod
    def of(cls, problem: CollocationProblem) -> _Pencil:
        """The pencil of ``problem``, shifted by sigma = max(0, min g/u) when
        unbordered and by 0 when bordered: a lower bound on the lowest level
        (module docstring).  The one place the shift and the border are
        formed, and the shift applied."""
        grid, g = problem.grid, problem.g
        a, u, w = grid.a, grid.weight, grid.dr
        column = -_d2_column(grid.size) / a**2
        if not grid.bordered:
            sigma = max(0.0, float(np.min(g / u)))
            return cls(column, a, sigma, _Arrowhead(g - sigma * u), _Arrowhead(u))
        dw = -2.0 * w * u  # omega' = -2 omega (1 - omega), and 1 - omega = u
        ddw = 4.0 * w * u * (u - w)
        return cls(column, a, 0.0, _Arrowhead(g, g * w - ddw, float(np.sum(dw * dw + g * w * w))),
                   _Arrowhead(u, u * w, float(np.sum(u * w * w))))

    def dense_left(self) -> np.ndarray:
        """The n x n left matrix, Fortran-ordered for LAPACK, with T copied
        into it from a strided view of the column, so no K x K temporary.
        The only dense build of a pencil, so its memory check guards
        whichever one is factored: a left larger than the machine's physical
        memory is a ValueError, raised before anything is allocated."""
        K, rest = self.column.size, self.rest
        n = K if rest.border is None else K + 1
        need, have = 8 * n * n, _physical_memory_bytes()
        if need > have:
            raise ValueError(f"the dense pencil at K = {K} needs {need / 1e9:.3g} GB, but this "
                             f"machine has {have / 1e9:.3g} GB of memory; reduce M")
        left = np.empty((n, n), order="F")
        # window i of [column[K-1..1], column] read backwards is row i of T
        symmetric = np.concatenate((self.column[:0:-1], self.column))
        left[:K, :K] = sliding_window_view(symmetric, K)[:, ::-1]
        if rest.border is not None:
            left[K, :K] = left[:K, K] = rest.border
            left[K, K] = rest.corner
        diag = np.arange(K)
        left[diag, diag] += rest.d
        return left

    def left_times(self, V: np.ndarray) -> np.ndarray:
        """left @ V for an n x k array V: T by the FFT (``_toeplitz_times``),
        the rest as an arrowhead."""
        out = self.rest @ V
        out[:self.column.size] += _toeplitz_times(self.column, V[:self.column.size])
        return out

    def left_norm(self) -> float:
        """||left||_inf, exactly: with C = cumsum |column|, row i of
        T + diag(rest.d) sums to |column[0] + rest.d[i]|
        + (C[i] - C[0]) + (C[K - 1 - i] - C[0])."""
        C = np.cumsum(np.abs(self.column))
        return self.rest.norm_inf(np.abs(self.column[0] + self.rest.d) + (C - C[0])
                                  + (C[::-1] - C[0]))

    def left_form(self, X: np.ndarray) -> np.ndarray:
        """X^T left X for an n x k array X whose Toeplitz rows are smooth, to
        rounding in the size of the result rather than of ||left|| ||X||^2.

        T is the sinc -d2/a^2, whose symbol is theta^2/a^2 on [-pi, pi], so
        x^T T y = (1/2 pi a^2) int theta^2 conj(x(theta)) y(theta) dtheta with
        x(theta) = sum_m x_m e^(-i m theta).  The trapezoid rule on the real
        FFT of length L >= 2K - 1 sums it exactly up to the kink of the
        periodic theta^2 at pi, weighted by |x(pi)|^2, which is nil for a
        function sampled finer than it varies.  Forming T x instead costs the
        rounding of entries of size 1/a^2, and would mix neighbouring Ritz
        vectors by eps ||left|| / gap: 2e-12 of the peak in R at a = 0.033.
        """
        K = self.column.size
        L = 1 << (2 * K - 2).bit_length()
        spectra = np.fft.rfft(X[:K], n=L, axis=0)
        theta = np.arange(L // 2 + 1) * (2.0 * np.pi / L)
        weights = np.full(theta.size, 2.0)  # each theta stands for +-theta ...
        weights[[0, -1]] = 1.0  # ... but 0 and pi
        symbol = weights * np.square(theta) / (L * self.a**2)
        out = (spectra.conj().T @ (symbol[:, None] * spectra)).real
        return out + X.T @ (self.rest @ X)

    def eigh(self, count: int, *, vectors: bool = True) -> EigenDecomposition:
        """The lowest ``count`` pairs, ascending: ``lowest`` on the dense left
        matrix (to the levels' accuracy alone without ``vectors``), then the
        residual contract from the pieces.  The dense left, overwritten by
        its Cholesky factor, is freed before the check."""
        lam, V = lowest(self.dense_left(), count, self.R.__matmul__, vectors=vectors)
        return verified(lam, V, self.left_times(V), self.R @ V, self.left_norm(),
                        self.R.norm_inf())

    def ritz(self, X: np.ndarray) -> EigenDecomposition:
        """The Rayleigh-Ritz pairs on the span of the columns of the n x k
        array X, ascending, verified by the residual contract.

        The k x k projections ``left_form(X)`` and X^T R X form a small
        symmetric-definite pencil, and its pairs (theta, y) give the Ritz
        pairs (theta, X y), whose products are those of X times y, so the
        contract costs no further product.  The pairs are the lowest only
        when X nearly spans the lowest eigenvectors; the contract checks
        that they are eigenpairs, not which ones.  A projection X^T R X that
        is numerically singular, its smallest eigenvalue at most k eps times
        its largest, means a linearly dependent basis, and that or any other
        failure of the small solve is an EigenSolveError.
        """
        AX, BX = self.left_times(X), self.R @ X
        small_left, small_right = self.left_form(X), X.T @ BX
        small_right = (small_right + small_right.T) / 2.0
        gram = np.linalg.eigvalsh(small_right)
        if not gram[0] > X.shape[1] * np.finfo(float).eps * gram[-1]:
            raise EigenSolveError(f"Rayleigh-Ritz projection failed: the {X.shape[1]} basis "
                                  f"vectors are linearly dependent, X^T R X has eigenvalues "
                                  f"from {gram[0]:.3e} to {gram[-1]:.3e}")
        try:
            theta, Y = scipy.linalg.eigh((small_left + small_left.T) / 2.0, small_right,
                                         check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise EigenSolveError(f"Rayleigh-Ritz projection failed: {exc}") from exc
        return verified(theta, X @ Y, AX @ Y, BX @ Y, self.left_norm(), self.R.norm_inf())


def _level_estimate(q: np.ndarray, weights: np.ndarray, n: int, steps: int = 30) -> float:
    """lambda_n where the Bohr-Sommerfeld phase sum weights sqrt(max(lambda - q, 0))
    reaches pi (n + 1/2): bracketed from min q by widths that double, then
    ``steps`` bisections; the bracket's upper end, or inf where it cannot grow."""
    def phase(lam):
        return np.sqrt(np.maximum(lam - q, 0.0)) @ weights

    lo = float(q.min())
    hi, width = lo + 1.0, 0.0
    while phase(hi) < math.pi * (n + 0.5):
        if not hi - lo > width:  # |min q| so large that lo + 1 rounds to lo
            return math.inf
        lo, hi, width = hi, 3.0 * hi - 2.0 * lo, hi - lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if phase(mid) < math.pi * (n + 0.5) else (lo, mid)
    return hi


def _window_ends(q: np.ndarray, weights: np.ndarray, lam: float,
                 decay: float) -> tuple[int, int, float]:
    """Offsets of the first and last node whose WKB decay, the sum of
    weights sqrt(max(q - lambda, 0)) from the outermost turning points of q,
    is below ``decay``, and the decay from the outer turning point to the
    grid's right end.  The window lies strictly inside the grid exactly when
    the grid's ends are ``decay`` or more past the level's turning points."""
    allowed = np.flatnonzero(q <= max(lam, np.min(q)))
    kappa = np.sqrt(np.maximum(q - lam, 0.0)) * weights
    left = np.count_nonzero(np.cumsum(kappa[allowed[0]::-1]) < decay)
    tail = np.cumsum(kappa[allowed[-1]:])
    right = np.count_nonzero(tail < decay)
    return int(allowed[0]) - left + 1, int(allowed[-1]) + right - 1, float(tail[-1])


def _holds(problem: CollocationProblem, count: int) -> bool:
    """Whether the grid of the unbordered ``problem`` holds its lowest ``count``
    states, by WKB on the pencil's own g, u and step a: lambda = lambda_(count-1)
    of a sum sqrt(max(lambda u - g, 0)) = pi (count - 1/2), and a window of
    _DECAYED's 12 decades of decay about it strictly inside the grid.  Eight
    bisections: the upper end of the bracket errs towards "not held", and an
    infinite estimate, whose window is the whole grid, reads so."""
    grid = problem.grid
    q, weights = problem.g / grid.weight, grid.a * np.sqrt(grid.weight)
    lo, hi, _ = _window_ends(q, weights, _level_estimate(q, weights, count - 1, steps=8),
                             -math.log(_DECAYED))
    return 0 < lo and hi < grid.size - 1


def _de_lift(V: np.ndarray, coarse: SincGrid, grid: SincGrid) -> np.ndarray:
    """The DE sinc series of the columns of V, vectors v on the DE grid
    ``coarse``, at the nodes of ``grid``, turned into that grid's v: f =
    sqrt(psi') v on the DE grid, and v = sqrt(phi') f on this one."""
    t = _de_inverse(grid.points)
    return (_sinc_series(V.T, -coarse.M, t / coarse.a) * np.sqrt(_de_map(t)[1] * grid.phi1)).T


def _two_grid(problem: CollocationProblem, pencil: _Pencil,
              count: int) -> EigenDecomposition | None:
    """The lowest ``count`` pairs of ``pencil``, the pencil of ``problem``, by
    Rayleigh-Ritz on the lifted coarse vectors of the DE grid (module
    docstring).  None for a bordered pencil and on a step above _COARSE_STEP,
    and where ``_holds`` refuses the DE grid, both before any solve; where
    any step raises a ValueError or EigenSolveError (a DE grid that cannot
    be formed or has the potential not finite on a node, a count above its
    size, a DE pencil too large for memory, a failed coarse solve, a
    dependent lifted basis, Ritz pairs that miss the residual contract); and
    where a Ritz residual is above _RITZ_RESIDUAL, the gate that also
    refuses a state the DE step does not resolve.  The caller's direct solve
    raises the given pencil's own refusals."""
    grid = problem.grid
    if grid.bordered or grid.a > _COARSE_STEP:
        return None
    try:
        coarse = _de_grid(grid, _DE_STEP)
        with np.errstate(all="ignore"):
            coarse_problem = assemble(coarse, problem.potential)
        if not _holds(coarse_problem, count):
            return None
        V = _Pencil.of(coarse_problem).eigh(count).eigenvectors
        ritz = pencil.ritz(_de_lift(V, coarse, grid))
    except (ValueError, EigenSolveError):
        return None
    return ritz if np.max(ritz.residuals) <= _RITZ_RESIDUAL else None


def solve(problem: CollocationProblem, count: int, *, vectors: bool = True) -> list[EigenPair]:
    """Return the ``count`` lowest eigenpairs, sorted ascending.

    The pairs are those of the symmetric pencil (see module docstring),
    built once as ``_Pencil.of(problem)`` with its shift sigma, which is
    added back to each eigenvalue: by the two-grid solve (``_two_grid``)
    where it applies and holds the pairs, and directly otherwise.  With
    ``vectors=False`` the direct solve stops at the levels' accuracy
    (``dense_eig.lowest``): the levels are as accurate, the coefficients
    only as the residual contract requires.  The two-grid path is the same
    either way, for its coarse vectors feed the Ritz step.
    Coefficient vectors are the nodal values f(x_m), sign-normalized so
    the largest-magnitude entry is positive.  A left matrix that is not
    positive definite, which means a non-positive lowest level, is an
    EigenSolveError, and so is a requested eigenvalue that is not finite.
    """
    grid = problem.grid
    K = grid.size
    _validate_count(count, K)
    pencil = _Pencil.of(problem)
    decomp = _two_grid(problem, pencil, count) or pencil.eigh(count, vectors=vectors)
    V = decomp.eigenvectors
    nodal = V[:K]
    border = np.zeros(count)
    if grid.bordered:
        border = V[K]
        nodal = nodal + grid.dr[:, None] * border[None, :]
    f = nodal / np.sqrt(grid.phi1)[:, None]
    # the largest-magnitude entry of each vector made positive
    sign = np.where(f[np.argmax(np.abs(f), axis=0), np.arange(count)] < 0.0, -1.0, 1.0)
    return [EigenPair(eigenvalue=float(pencil.sigma + lam), coefficients=sign[j] * f[:, j],
                      residual=float(decomp.residuals[j]), border=float(sign[j] * border[j]))
            for j, lam in enumerate(decomp.eigenvalues)]


def reconstruct(grid: SincGrid, pair: EigenPair, x: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the eigenfunction interpolant of ``pair`` at x > 0."""
    return interpolate(grid, pair.coefficients, x)
