"""Independent test oracles: shooting integrator, characteristic polynomial,
and a literal index-by-index transcription of the collocation matrix.

Everything here deliberately avoids the library's own code paths (except
for plain float helpers) so that agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


# Shooting starts at x = X0, locates brackets on a SCAN-point grid of
# lambda at a coarse tolerance and refines each root by brentq at RTOL.
X0 = 1e-6
SCAN = 160
RTOL = 1e-11


def shooting_eigenvalues(q, l, lam_lo, lam_hi, count, x_end=14.0):
    """Lowest eigenvalues of -u'' + q(x) u = lam u on (0, inf) by shooting.

    Integrates in s = ln x with u = x^(1/2) w, where the equation reads
    w'' = (x^2 (q(x) - lam) + 1/4) w, from the regular behavior w ~ e^(l s)
    at x = X0, and brackets sign changes of the endpoint value over
    [lam_lo, lam_hi].  Near zero u ~ x^(l+1/2) forces tiny steps in x,
    while w is smooth in s and DOP853 takes long steps.  ``atol`` is
    scaled to the starting amplitude X0^l: w' starts at 0 for l = 0, and
    a tiny ``atol`` on it forces steps near 1e-12.  A cheap low-accuracy
    scan locates brackets, brentq refines each root at full accuracy.

    ``x_end`` stands in for infinity and has to lie well past the
    outermost classical turning point of the highest requested level, or
    the roots are those of a box and come out too high.  For the
    logarithmic potential that point is x = e^lambda, about 16 for l = 0,
    n = 4: there the default x_end = 14 gives 2.5368 and 2.9187 for
    n = 3, 4, while x_end = 30 and x_end = 40 both give 2.5154477 and
    2.7676286 (agreeing to 5e-9).
    """
    s0 = math.log(X0)
    w0 = X0**l

    def endpoint(lam, tol):
        def rhs(s, y):
            x = math.exp(s)
            return (y[1], (x * x * (q(x) - lam) + 0.25) * y[0])

        sol = solve_ivp(rhs, (s0, math.log(x_end)), (w0, l * w0),
                        method="DOP853", rtol=tol, atol=1e-2 * tol * w0)
        return sol.y[0, -1]

    coarse = lambda lam: endpoint(lam, 1e-7)
    fine = lambda lam: endpoint(lam, RTOL)
    grid = np.linspace(lam_lo, lam_hi, SCAN)
    vals = [coarse(g) for g in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            roots.append(brentq(fine, grid[i], grid[i + 1], xtol=1e-10, rtol=1e-14))
            if len(roots) >= count:
                break
    return roots


def charpoly_coefficients(A):
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns c with p(x) = x^K + c[0] x^(K-1) + ... + c[K-1], computed with
    nothing but matrix products and traces.
    """
    A = np.asarray(A, dtype=float)
    K = A.shape[0]
    coeffs = []
    Mk = np.eye(K)
    for k in range(1, K + 1):
        AM = A @ Mk
        ck = -np.trace(AM) / k
        coeffs.append(ck)
        Mk = AM + ck * np.eye(K)
    return np.asarray(coeffs)


def charpoly_eval(coeffs, x):
    """Evaluate the monic polynomial with ``coeffs`` at (complex) x by Horner."""
    acc = np.ones_like(np.asarray(x, dtype=complex))
    for c in coeffs:
        acc = acc * x + c
    return acc


def literal_collocation_matrix(potential, alpha, beta, d, M):
    """Index-by-index transcription of the collocation matrix definition.

    Explicit loops over logical indices: sinc points
    x_m = ln(e^(ma) + sqrt(1 + e^(2ma))), step a = sqrt(2 pi d/(alpha M)),
    N = ceil(alpha/beta * M), and entries

        A[n, m] = potential(x_m) * kron(n, m)
                  + e^(-2ma)/a * delta1(n, m)
                  - (1 + e^(-2ma))/a^2 * delta2(n, m)

    with delta1(n, m) = (-1)^(m-n)/(m-n) off the diagonal and
    delta2(n, m) = -pi^2/3 on, 2*(-1)^(m-n+1)/(m-n)^2 off the diagonal.

    The sinc-point expression is evaluated at 50 digits (mpmath) before
    rounding to double: the naive double-precision ln(1 + tiny) loses
    ~1e-9 of relative accuracy at the left end of the grid, far above the
    comparison tolerance this oracle serves.
    """
    import mpmath as mp

    a = math.sqrt(2.0 * math.pi * d / (alpha * M))
    N = math.ceil(alpha / beta * M - 1e-12)
    idx = list(range(-M, N + 1))
    K = len(idx)
    with mp.workdps(50):
        x = {m: float(mp.log(mp.exp(m * a) + mp.sqrt(1 + mp.exp(2 * m * a)))) for m in idx}
    A = np.empty((K, K))
    for i, n in enumerate(idx):
        for j, m in enumerate(idx):
            e2m = math.exp(-2.0 * m * a)
            if n == m:
                d1 = 0.0
                d2 = -math.pi**2 / 3.0
                pot = potential(x[m])
            else:
                d1 = (-1.0) ** ((m - n) % 2) / (m - n)
                d2 = 2.0 * (-1.0) ** ((m - n + 1) % 2) / (m - n) ** 2
                pot = 0.0
            A[i, j] = pot + e2m / a * d1 - (1.0 + e2m) / a**2 * d2
    return A


def count_sign_changes(values, rel_threshold=1e-8):
    """Sign changes of a sampled function, ignoring samples in the noise floor.

    Samples with |v| below rel_threshold * max|v| carry no reliable sign
    and are skipped; the count is over the signs of the remaining samples
    in order.
    """
    values = np.asarray(values, dtype=float)
    keep = np.abs(values) >= rel_threshold * np.max(np.abs(values))
    signs = np.sign(values[keep])
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0.0))
