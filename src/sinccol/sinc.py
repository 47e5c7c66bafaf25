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

Each grid also carries its map's data at the nodes, which the one Liouville
form of ``collocation`` reads: ``build_grid`` stores them in closed form for
the map above, and the private ``_de_grid`` for the double-exponential map.

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


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SincGrid:
    """Mapped sinc discretization of (0, inf).

    Attributes:
        alpha: algebraic growth exponent bounding the target class near 0;
            alpha = 1/2 marks a ``bordered`` grid.
        M: lower summation limit (indices start at -M).
        N: upper summation limit, N = ceil((alpha/beta) * M) on build_grid's grid.
        a: step size, a = sqrt(2*pi*d / (alpha*M)) on build_grid's grid; a
            ``window`` of it keeps a and the indices but not M and N.
        points: sinc points x_m = psi(m*a), m = -M..N, strictly increasing.
        phi1: 1/psi', phi'(x_m) = sqrt(1 + e^(-2ma)) on build_grid's map.
        weight: u = psi'^2, tanh^2(x_m) = 1/(1 + e^(-2ma)) on build_grid's map.
        dr: r' of r = ln psi', sech^2(x_m) = 1/(1 + e^(2ma)) on build_grid's
            map, the boundary function omega of a bordered pencil.
        liouville: r'^2/4 - r''/2, omega (1 + 3u)/4 on build_grid's map.
    """

    alpha: float
    M: int
    N: int
    a: float
    points: np.ndarray
    phi1: np.ndarray
    weight: np.ndarray
    dr: np.ndarray
    liouville: np.ndarray

    @property
    def size(self) -> int:
        """Number of sinc points, K = M + N + 1."""
        return self.M + self.N + 1

    @property
    def bordered(self) -> bool:
        """Whether a pencil on this grid carries the boundary function omega =
        ``dr``: at alpha = 1/2 (critical coupling, f ~ x^(1/2))."""
        return self.alpha == 0.5

    @property
    def indices(self) -> np.ndarray:
        """Logical indices m = -M..N matching ``points`` positionally."""
        return np.arange(-self.M, self.N + 1)

    def window(self, lo: int, hi: int) -> SincGrid:
        """The sub-grid of logical indices lo..hi: same map, step and indices,
        every per-node array sliced."""
        if not -self.M <= lo <= hi <= self.N:
            raise ValueError(f"window {lo}..{hi} is not inside the grid's {-self.M}..{self.N}")
        kept = slice(lo + self.M, hi + self.M + 1)
        return replace(self, M=-int(lo), N=int(hi), **{name: value[kept] for name, value
                                                       in vars(self).items()
                                                       if isinstance(value, np.ndarray)})


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
    other grid multiple of a.  Public API, and the term-by-term reference
    against which the tests check the summed series of ``interpolate``.
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


# The double-exponential (DE) map x = psi(t) = ln(1 + e^(sinh t)) of the real
# line onto (0, inf) (Mori & Sugihara, J. Comput. Appl. Math. 127 (2001) 287;
# Gaudreau, Slevinsky & Safouhi, J. Math. Phys. 57 (2016) 043505): e^(-x ln x)
# decay becomes double-exponential in t, so a sinc grid in t needs far fewer
# nodes than one in z = ln sinh x.  With s = sinh t and the logistic
# sigma = 1/(1 + e^(-s)), psi' = cosh t sigma and r = ln psi' has
#   r' = tanh t + (1 - sigma) cosh t,
#   r'' = sech^2 t - sigma (1 - sigma) cosh^2 t + (1 - sigma) s.


def _de_map(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x = psi(t) = ln(1 + e^(sinh t)), psi'(t), r'(t) and r''(t) of the DE map
    (comment above), from one s = sinh t and e = e^(-|s|): x as
    max(s, 0) + log1p(e), 0 once e^s underflows, and sigma and 1 - sigma
    from e, so that none forms an exponential above 1, overflows or cancels."""
    s, cosh = np.sinh(t), np.cosh(t)
    e = np.exp(-np.abs(s))
    sigma = np.where(s >= 0.0, 1.0, e) / (1.0 + e)
    rest = np.where(s >= 0.0, e, 1.0) / (1.0 + e)  # 1 - sigma
    return (np.maximum(s, 0.0) + np.log1p(e), cosh * sigma, np.tanh(t) + rest * cosh,
            1.0 / np.square(cosh) - sigma * rest * np.square(cosh) + rest * s)


def _de_inverse(x: np.ndarray) -> np.ndarray:
    """t = asinh(ln(e^x - 1)) for x > 0, the inverse of ``_de_map``; above
    x = 30, ln(e^x - 1) = x + log1p(-e^(-x)), so that e^x is never formed."""
    big = np.maximum(x, 30.0)
    log_expm1 = np.where(x > 30.0, big + np.log1p(-np.exp(-big)),
                         np.log(np.expm1(np.minimum(x, 30.0))))
    return np.arcsinh(log_expm1)


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
    if not _is_integer(M) or M < 1:
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
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as a ValueError
        e2m = np.exp(-2.0 * ma)
        weight = 1.0 / (1.0 + e2m)
        omega = e2m / (1.0 + e2m)  # = 1 - weight, without cancellation
    phi1 = np.sqrt(1.0 + e2m)

    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(phi1))):
        raise ValueError("grid values overflow double precision; reduce M or increase alpha")
    if points[0] <= 0.0 or np.any(np.diff(points) <= 0.0):
        raise ValueError("sinc points must be strictly increasing and positive")

    return SincGrid(alpha=float(alpha), M=int(M), N=int(N), a=a, points=points, phi1=phi1,
                    weight=weight, dr=omega, liouville=omega * (1.0 + 3.0 * weight) / 4.0)


def _de_grid(like: SincGrid, h: float) -> SincGrid:
    """The sinc grid of step h on the DE map, over the nodes t = m h inside
    the x-range of ``like``, with its alpha.  A ValueError where that range
    holds no node or its first node underflows to x = 0, and where ``like``
    is bordered: a DE grid carries no border, for the DE map's r' is no
    boundary function, and the border sqrt(x) e^(-x)/sqrt(psi') decays only
    like e^(t/2) left of the window."""
    if like.bordered:
        raise ValueError("a bordered (alpha = 1/2) grid has no DE grid: the DE map has no "
                         "boundary function")
    lo, hi = _de_inverse(like.points[[0, -1]]) / h
    m = np.arange(math.ceil(lo), math.floor(hi) + 1)
    t = m * h
    points, dpsi, dr, ddr = _de_map(t)
    if not (m.size and points[0] > 0.0):
        raise ValueError(f"the grid of step {h} over x = {like.points[0]}..{like.points[-1]} has "
                         "no node above x = 0")
    return SincGrid(alpha=like.alpha, M=-int(m[0]), N=int(m[-1]), a=h, points=points,
                    phi1=1.0 / dpsi, weight=np.square(dpsi), dr=dr,
                    liouville=np.square(dr) / 4.0 - ddr / 2.0)


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

    Between nodes t carries the rounding of z = ln sinh x, about eps |z|/a:
    on random nodal data 3.4e-14 of the peak for z in [0, 10), up to 6.1e-13
    beyond z = 120; a decayed state scales it by its size there, and hides it.
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
    result = _sinc_series(values, -grid.M, t)
    if x_arr.ndim == 0:
        return float(result[0])
    return result.reshape(x_arr.shape)


def _sinc_series(values: np.ndarray, first: int, t: np.ndarray) -> np.ndarray:
    """sum_i values[..., i] sinc(t - first - i) at each entry of the 1-D array
    t, entry i of ``values`` standing at the logical index first + i.

    The sum of ``interpolate``'s docstring in the index t directly, with
    k = rint(t) and r = t - k: one sine per t, the Cauchy sum's near field
    and FFT far field, or the direct sum beyond the grid, and the nodal
    value where r = 0.  ``values`` is a K-vector, or a k x K stack of them
    that share the sine and the positions; the result is a t.size vector,
    or k x t.size.
    """
    K = values.shape[-1]
    indices = np.arange(first, first + K)
    k = np.rint(t)
    r = t - k
    on_node = r == 0.0
    alternating = np.where(indices % 2 == 0, values, -values)
    # position of k in the window k = first - _NEAR .. first + K - 1 + _NEAR of
    # the expansion; rows beyond it are clipped to its ends and overwritten by
    # the direct sum, and node rows take r = 1/2 so that no 1/0 is formed
    position = k + (_NEAR - first)
    clipped = np.clip(position, 0, K + 2 * _NEAR - 1)
    cauchy = _expanded_cauchy(alternating, clipped.astype(np.intp), np.where(on_node, 0.5, r))
    beyond = np.flatnonzero(clipped != position)
    cauchy[..., beyond] = _direct_cauchy(alternating, indices, t[beyond])
    k_sign = np.where(k % 2.0 == 0.0, 1.0, -1.0)
    result = k_sign * np.sin(np.pi * r) / np.pi * cauchy
    nodes = np.flatnonzero(on_node)
    offset = k[nodes] - first
    inside = (offset >= 0) & (offset < K)
    result[..., nodes] = 0.0
    # cast only the on-grid offsets: a huge t has no int
    result[..., nodes[inside]] = values[..., offset[inside].astype(int)]
    return result


def _expanded_cauchy(c: np.ndarray, position: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_m c_m / (k + r - m) for k = position - M - _NEAR within _NEAR of the
    grid, for the K-vector ``c`` or each row of a stack of them."""
    size = c.shape[-1]
    stack = c.shape[:-1]
    padded = np.zeros(stack + (size + 4 * _NEAR,))
    padded[..., 2 * _NEAR:2 * _NEAR + size] = c
    total = np.zeros(stack + r.shape)
    buffer = np.empty(stack + r.shape)
    # every position is in range, so mode="clip" only spares take its buffered copy
    for j in range(-_NEAR, _NEAR + 1):  # j = k - m
        term = np.take(padded[..., _NEAR - j:], position, axis=-1, out=buffer, mode="clip")
        term /= r + j
        total += term
    length = _circulant_length(size)
    shifted = np.zeros(stack + (length,))
    shifted[..., _NEAR:_NEAR + size] = c
    # a new array: the cached kernel spectra are read-only
    spectra = _kernel_spectra(size)
    spectra = spectra.reshape(spectra.shape[:1] + (1,) * len(stack) + spectra.shape[1:])
    fields = np.fft.irfft(spectra * np.fft.rfft(shifted), length)
    # Horner in -r, gathering one term at a time
    minus_r = -r
    far = np.take(fields[_TERMS - 1], position, axis=-1, out=np.empty(buffer.shape), mode="clip")
    for p in range(_TERMS - 2, -1, -1):
        far *= minus_r
        far += np.take(fields[p], position, axis=-1, out=buffer, mode="clip")
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
    no grid index m, for the K-vector ``c`` or each row of a stack of them."""
    cauchy = np.empty(c.shape[:-1] + t.shape)
    for start in range(0, t.size, _DIRECT_ROWS):
        block = t[start:start + _DIRECT_ROWS]
        cauchy[..., start:start + block.size] = (1.0 / (block[:, None] - indices) @ c.T).T
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
