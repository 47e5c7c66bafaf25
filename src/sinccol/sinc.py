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

import functools
import math
from dataclasses import dataclass, replace
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
# rows per block of `_direct_cauchy`, in whole groups of 16 so that BLAS sums
# each row as one product over all rows would
_DIRECT_ROWS = 64
# `interpolate` sums the terms with |k - m| <= _NEAR directly and the rest by
# _TERMS terms of a Taylor series in |r| <= 1/2, whose ratio is at most
# 1/(2 _NEAR + 2): _TERMS is the least with (2 _NEAR + 2)^-_TERMS <= 1e-16
_NEAR = 8
_TERMS = math.ceil(16.0 / math.log10(2 * _NEAR + 2))


@dataclass(frozen=True)
class SincGrid:
    """Mapped sinc discretization of (0, inf).

    Attributes:
        alpha: algebraic growth exponent bounding the target class near 0.
        beta: exponential decay exponent bounding the class at infinity.
        d: half-width of the analyticity strip, 0 < d <= pi/2.
        M: lower summation limit (indices start at -M).
        N: upper summation limit, N = ceil((alpha/beta) * M) on build_grid's grid.
        a: step size, a = sqrt(2*pi*d / (alpha*M)) on build_grid's grid; a
            ``window`` of it keeps a and the indices but not M and N.
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

    def window(self, lo: int, hi: int) -> SincGrid:
        """The sub-grid of logical indices lo..hi: same map, step and indices."""
        if not -self.M <= lo <= hi <= self.N:
            raise ValueError(f"window {lo}..{hi} is not inside the grid's {-self.M}..{self.N}")
        kept = slice(lo + self.M, hi + self.M + 1)
        return replace(self, M=-int(lo), N=int(hi), points=self.points[kept],
                       phi1=self.phi1[kept], phi2=self.phi2[kept])


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
    # sinh overflows past ~710; ln(sinh w) = w - ln2 + log1p(-e^(-2w)), and
    # for w > 20 the last term is below half an ulp of w - ln2
    big = ~small
    out[big] = w_arr[big] - _LN2
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
    with np.errstate(over="ignore"):  # refused below as a ValueError
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
    """Evaluate the sinc interpolant of nodal ``values`` at finite x > 0.

    Computes sum_m values[m] * S(m, a)(phi(x)).  With t = phi(x)/a,
    k = rint(t) and r = t - k, every term shares one sine,

        sinc(t - m) = (-1)^(k - m) sin(pi r) / (pi (t - m)),

    so each abscissa costs one sine and the Cauchy sum
    sum_m c_m / (t - m), c_m = (-1)^m values[m].  Where t is an integer
    the interpolant is the nodal value there, or 0 off the grid.  The
    other rows take one of two paths:

    * k within _NEAR of the grid: the terms with |k - m| <= _NEAR are
      summed directly, and the rest by the Taylor series
      sum_p (-r)^p F_p(k), F_p(k) = sum_{|k-m| > _NEAR} c_m (k - m)^-(p+1),
      whose _TERMS real-FFT convolutions are formed once per call (the
      kernels' spectra are kept for the last grid size).  A row costs
      O(_NEAR + _TERMS), and a call O(_TERMS K log K) besides.
    * k farther out: the whole sum runs directly over blocks of
      _DIRECT_ROWS rows, one reciprocal pass and one matrix-vector
      product per block.

    P abscissae take O(P + K) memory rather than a P x K matrix.
    The result has the shape of x, and a scalar x gives a float.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise ValueError(f"values must have shape ({grid.size},), got {values.shape}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & np.isfinite(x_arr)):
        raise ValueError("interpolate requires finite x > 0")
    with np.errstate(over="ignore"):
        t = np.asarray(map_forward(x_arr.ravel()), dtype=float) / grid.a
    if not np.all(np.isfinite(t)):
        raise ValueError("interpolate requires phi(x)/a to be finite; x is too large")
    k = np.rint(t)
    r = t - k
    on_node = r == 0.0
    alternating = np.where(grid.indices % 2 == 0, values, -values)
    # position of k in the window k = -M - _NEAR .. N + _NEAR of the expansion;
    # rows beyond it are clipped to its ends and overwritten by the direct sum,
    # and node rows take r = 1/2 so that no 1/0 is formed
    position = k + (grid.M + _NEAR)
    clipped = np.clip(position, 0, grid.size + 2 * _NEAR - 1)
    cauchy = _expanded_cauchy(alternating, clipped.astype(np.intp), np.where(on_node, 0.5, r))
    beyond = np.flatnonzero(clipped != position)
    cauchy[beyond] = _direct_cauchy(alternating, grid.indices, t[beyond])
    k_sign = np.where(k % 2.0 == 0.0, 1.0, -1.0)
    result = k_sign * np.sin(np.pi * r) / np.pi * cauchy
    nodes = np.flatnonzero(on_node)
    offset = k[nodes] + grid.M
    inside = (offset >= 0) & (offset < grid.size)
    result[nodes] = 0.0
    # cast only the on-grid offsets: a huge t has no int
    result[nodes[inside]] = values[offset[inside].astype(int)]
    if x_arr.ndim == 0:
        return float(result[0])
    return result.reshape(x_arr.shape)


def _expanded_cauchy(c: np.ndarray, position: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_m c_m / (k + r - m) for k = position - M - _NEAR within _NEAR of the grid."""
    size = c.size
    padded = np.zeros(size + 4 * _NEAR)
    padded[2 * _NEAR:2 * _NEAR + size] = c
    total = np.zeros(r.size)
    for j in range(-_NEAR, _NEAR + 1):  # j = k - m
        total += padded[_NEAR - j:][position] / (r + j)
    length = _circulant_length(size)
    shifted = np.zeros(length)
    shifted[_NEAR:_NEAR + size] = c
    # a new array: the cached kernel spectra are read-only
    fields = np.fft.irfft(_kernel_spectra(size) * np.fft.rfft(shifted), length, axis=1)
    # Horner in -r, gathering one term at a time
    minus_r = -r
    far = fields[_TERMS - 1][position]
    for p in range(_TERMS - 2, -1, -1):
        far *= minus_r
        far += fields[p][position]
    return total + far


def _circulant_length(size: int) -> int:
    """F_p over the window is one circular convolution per p, of power-of-two
    length at least 2K - 1 + 2 _NEAR, which keeps distances of both signs apart."""
    return 1 << (2 * size - 2 + 2 * _NEAR).bit_length()


# one size only: calls come in runs on one grid, and every kept spectrum stays
# resident through the solves between them (13 (L/2 + 1) complex entries)
@functools.lru_cache(maxsize=1)
def _kernel_spectra(size: int) -> np.ndarray:
    """Real FFTs of the _TERMS far-field kernels j^-(p+1), |j| > _NEAR, of
    `_expanded_cauchy` on a grid of ``size`` nodes, read-only."""
    length = _circulant_length(size)
    j = np.arange(_NEAR + 1, size + _NEAR)
    exponents = np.arange(1, _TERMS + 1)[:, None]  # p + 1
    powers = (1.0 / j) ** exponents
    kernels = np.zeros((_TERMS, length))
    kernels[:, j] = powers
    kernels[:, length - j] = (-1.0) ** exponents * powers
    spectra = np.fft.rfft(kernels, axis=1)
    spectra.flags.writeable = False
    return spectra


def _direct_cauchy(c: np.ndarray, indices: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_m c_m / (t - m) term by term, _DIRECT_ROWS rows at a time, for t at
    no grid index m."""
    cauchy = np.empty(t.size)
    for start in range(0, t.size, _DIRECT_ROWS):
        block = t[start:start + _DIRECT_ROWS]
        cauchy[start:start + block.size] = 1.0 / (block[:, None] - indices) @ c
    return cauchy


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
