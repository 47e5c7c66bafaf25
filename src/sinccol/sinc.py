"""Sinc basis on a conformally mapped grid for the half line (0, inf).

The half line is mapped onto the real axis by z = phi(x) = ln(sinh(x)),
whose inverse is psi(z) = arcsinh(e^z).  A uniform grid z = m*a,
m = -M..N, pulls back to the sinc points x_m = psi(m*a), clustered
geometrically towards the origin and asymptotically equispaced at
infinity.  Functions bounded by C*x^alpha near 0 and C*e^(-beta*x) at
infinity are interpolated and integrated with errors that decay like
exp(-c*sqrt(M)) once the step is tied to M by a = sqrt(2*pi*d/(alpha*M)),
where d is the half-width of the strip of analyticity around the real
z-axis.

Index convention: logical indices m, n run over {-M..N} and map to array
offsets i = m + M everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import toeplitz

__all__ = [
    "SincGrid",
    "DeltaMatrices",
    "sinc_basis",
    "map_forward",
    "map_inverse",
    "build_grid",
    "build_deltas",
    "interpolate",
    "quadrature",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SincGrid:
    """Mapped sinc discretization of (0, inf).

    Attributes:
        alpha: algebraic growth exponent bounding the target class near 0.
        beta: exponential decay exponent bounding the class at infinity.
        d: half-width of the analyticity strip, 0 < d <= pi/2.
        M: lower summation limit (indices start at -M).
        N: upper summation limit, N = ceil((alpha/beta) * M).
        a: step size, a = sqrt(2*pi*d / (alpha*M)).
        points: sinc points x_m = psi(m*a), m = -M..N, strictly increasing.
        phi1: phi'(x_m) = sqrt(1 + e^(-2ma)), stored in closed form.
        phi2: phi''(x_m) = -e^(-2ma), stored in closed form.
    """

    alpha: float
    beta: float
    d: float
    M: int
    N: int
    a: float
    points: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray

    @property
    def size(self) -> int:
        """Number of sinc points, K = M + N + 1."""
        return self.M + self.N + 1

    @property
    def indices(self) -> np.ndarray:
        """Logical indices m = -M..N matching ``points`` positionally."""
        return np.arange(-self.M, self.N + 1)


@dataclass(frozen=True)
class DeltaMatrices:
    """Toeplitz collocation matrices of the sinc basis on a uniform grid.

    Entry (n, m) holds the basis function with index m (column) evaluated,
    or differentiated in the map variable, at grid index n (row):

        d0[n, m] = 1 if m == n else 0
        d1[n, m] = 0 if m == n else (-1)^(m-n) / (m-n)
        d2[n, m] = -pi^2/3 if m == n else 2*(-1)^(m-n+1) / (m-n)^2

    All three depend on the index difference m - n only.
    """

    size: int
    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


def _reduced_sinc(t: np.ndarray | float) -> np.ndarray | float:
    """sin(pi*t)/(pi*t) with the argument reduced to the nearest integer.

    Reducing t modulo 1 before multiplying by pi keeps the absolute error
    of each value near eps*|value| even for |t| ~ 1e5, where the naive
    sin(pi*t) loses accuracy to the rounding of pi*t.  Exact zeros are
    returned at nonzero integers.
    """
    t = np.asarray(t, dtype=float)
    k = np.rint(t)
    r = t - k
    sign = np.where(np.asarray(k % 2.0) == 0.0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sign * np.sin(np.pi * r) / (np.pi * t)
    out = np.where(t == 0.0, 1.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def sinc_basis(m: int, a: float, x: np.ndarray | float) -> np.ndarray | float:
    """Translated cardinal function sin(pi*(x - m*a)/a) / (pi*(x - m*a)/a).

    Takes the value 1 at x = m*a (removable singularity) and 0 at every
    other grid multiple of a.
    """
    if a <= 0:
        raise ValueError(f"step size a must be positive, got {a}")
    return _reduced_sinc((np.asarray(x, dtype=float) - m * a) / a)


def map_forward(w: np.ndarray | float) -> np.ndarray | float:
    """Conformal map z = ln(sinh(w)) from (0, inf) onto the real line.

    Strictly increasing, -inf as w -> 0+ and w - ln(2) + O(e^(-2w)) as
    w -> inf.  Nonpositive w is a domain error.
    """
    scalar = np.ndim(w) == 0
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w_arr <= 0.0) or np.any(np.isnan(w_arr)):
        raise ValueError("map_forward requires w > 0")
    out = np.empty_like(w_arr)
    small = w_arr <= 20.0
    out[small] = np.log(np.sinh(w_arr[small]))
    # sinh overflows past ~710; ln(sinh w) = w - ln2 + log1p(-e^(-2w))
    big = ~small
    out[big] = w_arr[big] - _LN2 + np.log1p(-np.exp(-2.0 * w_arr[big]))
    if scalar:
        return float(out[0])
    return out


def map_inverse(z: np.ndarray | float) -> np.ndarray | float:
    """Inverse map w = psi(z) = ln(e^z + sqrt(1 + e^(2z))) = arcsinh(e^z).

    Total on the reals and overflow safe for |z| well beyond 700: for
    large z the identity psi(z) = z + log1p(sqrt(1 + e^(-2z))) avoids
    forming e^(2z), and for very negative z arcsinh keeps the result a
    positive denormal-scale number instead of flushing to zero.
    """
    scalar = np.ndim(z) == 0
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z_arr)
    small = z_arr <= 30.0
    out[small] = np.arcsinh(np.exp(z_arr[small]))
    big = ~small
    out[big] = z_arr[big] + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * z_arr[big])))
    if scalar:
        return float(out[0])
    return out


def _snapped_ceil(v: float) -> int:
    """ceil(v) that forgives float fuzz just below an integer."""
    nearest = round(v)
    if abs(v - nearest) <= 1e-9 * max(1.0, abs(v)):
        return int(nearest)
    return int(math.ceil(v))


def build_grid(alpha: float, beta: float, d: float, M: int) -> SincGrid:
    """Construct the sinc grid for the class with exponents (alpha, beta).

    The step size a = sqrt(2*pi*d/(alpha*M)) balances the analyticity-strip
    error against the grid truncation, and N = ceil((alpha/beta)*M)
    balances the two truncation ends.  Raises ValueError when a exceeds
    the admissible bound 2*pi*d/ln(2) or any stored value is nonfinite.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0 < d <= math.pi / 2:
        raise ValueError(f"d must lie in (0, pi/2], got {d}")
    if not isinstance(M, (int, np.integer)) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")

    a = math.sqrt(2.0 * math.pi * d / (alpha * M))
    if a > 2.0 * math.pi * d / _LN2:
        raise ValueError(
            f"step a={a:.6g} exceeds the bound 2*pi*d/ln(2)={2*math.pi*d/_LN2:.6g}; "
            "increase alpha*M"
        )
    N = _snapped_ceil(alpha / beta * M)

    m = np.arange(-M, N + 1)
    ma = m * a
    points = np.asarray(map_inverse(ma))
    e2m = np.exp(-2.0 * ma)
    phi1 = np.sqrt(1.0 + e2m)
    phi2 = -e2m

    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(phi1)) and np.all(np.isfinite(phi2))):
        raise ValueError("grid values overflow double precision; reduce M or increase alpha")
    if points[0] <= 0.0 or np.any(np.diff(points) <= 0.0):
        raise ValueError("sinc points must be strictly increasing and positive")

    return SincGrid(alpha=float(alpha), beta=float(beta), d=float(d), M=int(M), N=int(N),
                    a=a, points=points, phi1=phi1, phi2=phi2)


def build_deltas(grid: SincGrid) -> DeltaMatrices:
    """Materialize the dense collocation matrices for ``grid``.

    The matrices are Toeplitz in the index difference m - n; they are
    stored densely since K stays in the low thousands here.
    """
    K = grid.size
    k = np.arange(K)
    sign = np.where(k % 2 == 0, 1.0, -1.0)

    v1 = np.zeros(K)
    v1[1:] = sign[1:] / k[1:]
    d1 = toeplitz(-v1, v1)  # antisymmetric, entry (n, m) = (-1)^(m-n)/(m-n)

    v2 = _d2_column(K)
    d2 = toeplitz(v2, v2)  # symmetric

    return DeltaMatrices(size=K, d0=np.eye(K), d1=d1, d2=d2)


def _d2_column(K: int) -> np.ndarray:
    """First column of the symmetric Toeplitz matrix d2 of size K."""
    k = np.arange(1, K, dtype=float)
    v2 = np.empty(K)
    v2[0] = -np.pi**2 / 3.0
    v2[1:] = -2.0 * np.where(k % 2 == 0, 1.0, -1.0) / k**2
    return v2


def interpolate(grid: SincGrid, values: np.ndarray, x: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the sinc interpolant of nodal ``values`` at x > 0.

    Computes sum_m values[m] * S(m, a)(phi(x)).  With t = phi(x)/a,
    k = rint(t) and r = t - k, every term shares one sine,

        sinc(t - m) = (-1)^(k - m) sin(pi r) / (pi (t - m)),

    so each abscissa costs one sine, and the sum is one reciprocal pass
    and one matrix-vector product over the m.  Where t is an integer the
    interpolant is the nodal value there, or 0 off the grid.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise ValueError(f"values must have shape ({grid.size},), got {values.shape}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(np.isnan(x_arr)):
        raise ValueError("interpolate requires x > 0")
    t = np.atleast_1d(np.asarray(map_forward(x_arr), dtype=float)) / grid.a
    k = np.rint(t)
    r = t - k
    on_node = r == 0.0
    # shift node rows off the grid so that no 1/0 is formed; they are overwritten
    inverse = np.subtract.outer(np.where(on_node, t + 0.5, t), grid.indices)
    np.reciprocal(inverse, out=inverse)
    alternating = np.where(grid.indices % 2 == 0, values, -values)
    k_sign = np.where(k % 2.0 == 0.0, 1.0, -1.0)
    result = k_sign * np.sin(np.pi * r) / np.pi * (inverse @ alternating)
    nodes = np.flatnonzero(on_node)
    offset = k[nodes].astype(int) + grid.M
    inside = (offset >= 0) & (offset < grid.size)
    result[nodes] = 0.0
    result[nodes[inside]] = values[offset[inside]]
    if x_arr.ndim == 0:
        return float(result[0])
    return result


def quadrature(grid: SincGrid, integrand: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integrate ``integrand`` over (0, inf) by the sinc trapezoid rule.

    Returns a * sum_m F(x_m) / phi'(x_m).  The integrand must obey the
    growth bounds of the grid's class (|F| <= C x^(alpha-1) near 0 and
    C e^(-beta x) at infinity) for the exponential error decay
    O(exp(-sqrt(2*pi*d*alpha*M))) to hold; this is the caller's
    responsibility.  A nonfinite integrand value at any sinc point is an
    error.
    """
    vals = _evaluate_on_points(integrand, grid.points)
    if not np.all(np.isfinite(vals)):
        bad = grid.points[~np.isfinite(vals)][0]
        raise ValueError(f"integrand is not finite at sinc point x={bad!r}")
    return float(grid.a * np.sum(vals / grid.phi1))


def _evaluate_on_points(fn: Callable, points: np.ndarray) -> np.ndarray:
    """Evaluate fn on all points, accepting vectorized or scalar callables."""
    try:
        vals = np.asarray(fn(points), dtype=float)
        if vals.shape == points.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.asarray([float(fn(float(x))) for x in points])
