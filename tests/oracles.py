"""Independent test oracles: shooting integrator and the levels it commits
(``python tests/oracles.py``), characteristic polynomial, a literal
index-by-index transcription of the collocation matrix, the dense right
matrix of the symmetric pencil, and a level count by inertia.

Everything here deliberately avoids the library's own code paths (except
for plain float helpers) so that agreement is meaningful.
"""

from __future__ import annotations

import csv
import math
import pathlib

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


# Shooting starts at x = X0, locates brackets on a SCAN-point grid of
# lambda at a coarse tolerance and refines each root by brentq at RTOL.
X0 = 1e-6
SCAN = 160
RTOL = 1e-11


def shooting_eigenvalues(q, l, lam_lo, lam_hi, count, x_end=14.0, *, x0=X0, rtol=RTOL,
                         scan=SCAN, xtol=1e-10, root_rtol=1e-14):
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

    The keywords override the module's settings: the start point ``x0``,
    the integrator's ``rtol``, the ``scan`` points, and brentq's ``xtol``
    and ``root_rtol``.
    """
    s0 = math.log(x0)
    w0 = x0**l

    def endpoint(lam, tol):
        def rhs(s, y):
            x = math.exp(s)
            return (y[1], (x * x * (q(x) - lam) + 0.25) * y[0])

        sol = solve_ivp(rhs, (s0, math.log(x_end)), (w0, l * w0),
                        method="DOP853", rtol=tol, atol=1e-2 * tol * w0)
        return sol.y[0, -1]

    coarse = lambda lam: endpoint(lam, 1e-7)
    fine = lambda lam: endpoint(lam, rtol)
    grid = np.linspace(lam_lo, lam_hi, scan)
    roots = []
    # the scan stops at the count-th bracket, so it integrates no point past it
    below = coarse(grid[0])
    for lo, hi in zip(grid[:-1], grid[1:]):
        above = coarse(hi)
        # signs, not the product, which overflows for a far x_end
        if np.sign(below) * np.sign(above) < 0:
            roots.append(brentq(fine, lo, hi, xtol=xtol, rtol=root_rtol))
            if len(roots) >= count:
                break
        below = above
    return roots


# The committed levels of the logarithmic Coulomb problem, ORACLE_FILE, are
# shot from x0 = 1e-9 (the regular branch's start error is of order
# x0^2 |ln x0|) at an integrator rtol of 1e-13 and brentq's xtol = rtol = 1e-15
# (scipy's floor on rtol is 4 eps).  Each run is (l, first n kept, count,
# x_end, scan, lam_lo, lam_hi); x_end lies far past the turning point
# x = e^lambda of the highest level.  l >= 1 stops at n = 4, for nothing
# independent of this integrator has checked it beyond.
ORACLE_FILE = pathlib.Path(__file__).parent / "data" / "oracle_levels.csv"
ORACLE_SETTINGS = dict(x0=1e-9, rtol=1e-13, xtol=1e-15, root_rtol=1e-15)
ORACLE_RUNS = [(0, 0, 5, 60.0, SCAN, 0.1, 3.0)]
ORACLE_RUNS += [(l, 0, 5, 80.0, SCAN, 0.1, 4.0) for l in range(1, 5)]
ORACLE_RUNS += [(0, 5, 20, 200.0, 400, 0.1, 4.3)]


def log_coulomb_levels(l, count, x_end, scan, lam_lo, lam_hi):
    """The lowest ``count`` levels of -u'' + ((4 l^2 - 1)/(4 x^2) + ln x) u =
    lambda u by shooting at ORACLE_SETTINGS."""
    q = lambda x: (4 * l * l - 1) / (4.0 * x * x) + math.log(x)
    return shooting_eigenvalues(q, l, lam_lo, lam_hi, count, x_end=x_end, scan=scan,
                                **ORACLE_SETTINGS)


def read_oracle_levels():
    """The committed levels as a dict {(l, n): lambda}."""
    with open(ORACLE_FILE, newline="") as handle:
        return {(int(row["l"]), int(row["n"])): float(row["lambda"])
                for row in csv.DictReader(handle)}


def oracle_rows():
    """Shoot every run of ORACLE_RUNS: the rows (l, n, lambda) of ORACLE_FILE."""
    rows = []
    for l, first, count, x_end, scan, lam_lo, lam_hi in ORACLE_RUNS:
        levels = log_coulomb_levels(l, count, x_end, scan, lam_lo, lam_hi)
        if len(levels) != count:
            raise RuntimeError(f"l = {l}: {len(levels)} of {count} levels in "
                               f"[{lam_lo}, {lam_hi}]")
        rows += [(l, n, levels[n]) for n in range(first, count)]
    return rows


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


def dense_right(grid):
    """The pencil's n x n right matrix on ``grid``, written out from
    u = ``grid.weight`` and the boundary function omega = ``grid.dr``:
    diag(u) when the grid is not bordered, and otherwise diag(u) bordered by
    the row and column u omega with sum(u omega^2) at (K, K)."""
    weight, omega = grid.weight, grid.dr
    K = weight.size
    if not grid.bordered:
        return np.diag(weight)
    right = np.zeros((K + 1, K + 1))
    right[np.arange(K), np.arange(K)] = weight
    right[K, :K] = right[:K, K] = weight * omega
    right[K, K] = np.sum(weight * omega * omega)
    return right


def levels_below(g, weight, a, tau):
    """The number of eigenvalues below ``tau`` of the unbordered pencil
    (-d2/a^2 + diag(g), diag(u)), u = ``weight``, by Sylvester's law of
    inertia: the negative inertia of left - tau diag(u), read from its
    LDL^T factorization, whose D has 1 x 1 and 2 x 2 diagonal blocks.  The
    sinc second derivative is written out: -d2[j, k] = pi^2/3 on the
    diagonal and 2 (-1)^(j - k)/(j - k)^2 off it."""
    k = np.arange(1, g.size)
    column = np.concatenate(([math.pi**2 / 3.0], 2.0 * (-1.0) ** k / k**2)) / a**2
    _, D, _ = scipy.linalg.ldl(scipy.linalg.toeplitz(column) + np.diag(g - tau * weight))
    return int(np.count_nonzero(np.linalg.eigvalsh(D) < 0.0))


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


if __name__ == "__main__":
    # python tests/oracles.py rewrites ORACLE_FILE, in about a minute
    rows = oracle_rows()
    with open(ORACLE_FILE, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["l", "n", "lambda"])
        writer.writerows((l, n, f"{lam:.17g}") for l, n, lam in rows)
