"""Dense real eigensolvers and the residual contract of their pairs.

``eig`` delegates a nonsymmetric matrix to LAPACK's dgeev (balancing,
Hessenberg reduction, shifted QR) through scipy.  ``lowest`` is the kernel
of a symmetric-definite pencil: the Cholesky factor of its dense left
matrix (dpotrf) and Lanczos (ARPACK) on the reduced operator, so the
K x K matrix is never tridiagonalized.  ``verified`` checks a pencil's
pairs from its products with their vectors and its two norms, which the
caller forms from the pencil's structure (``collocation._Pencil``), so
the check needs no dense matrix.  Every pair must satisfy

    ||A v - lambda v||_inf <= 1e-8 * ||A||_inf * ||v||_inf

for a matrix, and for a pencil A v = lambda B v

    ||A v - lambda B v||_inf <= 1e-8 * (||A||_inf + |lambda| ||B||_inf) * ||v||_inf,

and a non-finite residual violates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .sinc import _is_integer

__all__ = ["EigenDecomposition", "EigenSolveError", "InfiniteLevelError", "RESIDUAL_TOL", "eig",
           "lowest", "verified"]

RESIDUAL_TOL = 1e-8
# ARPACK's tol for a solve that wants levels only (``lowest``)
_LEVELS_TOL = 1e-10


class EigenSolveError(RuntimeError):
    """Raised when an eigensolve fails to converge or violates its contract."""


class InfiniteLevelError(EigenSolveError):
    """Raised when a requested eigenvalue of a pencil is not finite: the
    pencil has fewer finite levels than were asked for."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a real K x K matrix or pencil.

    ``eig`` returns all K pairs in no particular order, ``verified`` a
    pencil's pairs in the order given, ascending from the pencil's solves
    in ``collocation``.  ``eigenvectors[:, j]`` belongs to
    ``eigenvalues[j]``; ``residuals[j]`` is the relative infinity-norm
    residual of that pair.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray


def _relative_residuals(R: np.ndarray, V: np.ndarray, scale: np.ndarray | float) -> np.ndarray:
    """max|R| / (scale max|V|) per column, the relative residual of each
    pair; raises EigenSolveError unless every one is <= RESIDUAL_TOL."""
    denom = np.maximum(scale * np.max(np.abs(V), axis=0), np.finfo(float).tiny)
    residuals = np.max(np.abs(R), axis=0) / denom
    worst = float(np.max(residuals))
    if worst <= RESIDUAL_TOL:
        return residuals
    if not np.isfinite(worst):
        j = int(np.flatnonzero(~np.isfinite(residuals))[0])
        raise EigenSolveError(f"residual contract violated: pair {j} has the non-finite "
                              f"relative residual {residuals[j]}")
    raise EigenSolveError(
        f"residual contract violated: max relative residual {worst:.3e} "
        f"exceeds {RESIDUAL_TOL:.1e}"
    )


def _validate_count(count, limit: int) -> None:
    """``count`` must be an integer in [1, limit]; a bool is not one."""
    if not _is_integer(count):
        raise ValueError(f"count must be an integer, got {count!r}")
    if not 1 <= count <= limit:
        raise ValueError(f"count must lie in [1, {limit}], got {count}")


def eig(matrix: np.ndarray) -> EigenDecomposition:
    """Solve A v = lambda v for a real square matrix, all K pairs.

    Raises EigenSolveError if the QR iteration fails to converge or any
    returned pair misses the residual contract; never returns a silent
    partial result.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"matrix must be square with K >= 1, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must all be finite")

    try:
        w, V = scipy.linalg.eig(A)
    except scipy.linalg.LinAlgError as exc:
        raise EigenSolveError(f"QR iteration failed to converge: {exc}") from exc

    if np.any(np.max(np.abs(V), axis=0) == 0.0):
        raise EigenSolveError("eigensolver returned a zero eigenvector")

    residuals = _relative_residuals(A @ V - V * w, V, np.max(np.sum(np.abs(A), axis=1)))
    return EigenDecomposition(eigenvalues=w, eigenvectors=V, residuals=residuals)


def lowest(left: np.ndarray, count: int, right_times: Callable[[np.ndarray], np.ndarray], *,
           vectors: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``count`` levels lambda of left v = lambda right v,
    ascending, and their vectors as the columns of an n x count array.

    ``left``, dense, symmetric and positive definite, is overwritten by its
    Cholesky factor L (a Fortran-ordered one avoids a copy); the positive
    semidefinite right matrix is given only as ``right_times(V)``, its
    product with an n-vector or n x k array.  ``count`` must be an integer
    in [1, n].  The roles are swapped: L^-1 right L^-T is searched for its
    ``count`` largest mu = 1/lambda only, so a singular or badly scaled
    right matrix costs no accuracy in the low end.  Lanczos (ARPACK
    ``eigsh``, start vector all ones, so repeated solves are bit-identical)
    applies it by two triangular solves with L (dtrsv), and v = L^-T y.  For
    ``count >= n - 1`` the operator's matrix is formed from the n unit vectors
    and diagonalized (``scipy.linalg.eigh``): ``eigsh`` takes count < n only,
    and at n - 1 applies the operator n + 1 times, a Krylov space of all R^n,
    at 1.4 to 1.9 times the cost for n = 201 and 421 (2 cores, OpenBLAS).

    With ``vectors=False`` only the levels are wanted: Lanczos stops once
    each Ritz residual is _LEVELS_TOL of its mu, and seeks one level in a
    subspace of 8 vectors at most, where ARPACK's default of 20 costs 21
    products before its first test.  A Ritz value errs by about its
    residual squared over the gap (Parlett, The Symmetric Eigenvalue
    Problem, 1998, 11.7), so the levels stay at roundoff; the vectors,
    still returned for the residual contract, carry the residual itself.

    Raises EigenSolveError if ``left`` is not positive definite or the
    eigensolve does not converge, and InfiniteLevelError if a requested mu
    is at most n eps times the largest one: an infinite level, which Lanczos
    returns as a mu of roundoff (1e-62 to 1e-50) rather than 0.
    """
    n = left.shape[0]
    _validate_count(count, n)
    L, info = lapack.dpotrf(left, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise EigenSolveError("left matrix is not positive definite: the lowest level is not "
                              "positive")

    def reduced(y):
        x = blas.dtrsv(L, y, lower=1, trans=1)
        return blas.dtrsv(L, right_times(x), lower=1, overwrite_x=1)

    if count >= n - 1:
        reduced_matrix = np.column_stack([reduced(e) for e in np.eye(n)])
        try:
            mu, Y = scipy.linalg.eigh(reduced_matrix, subset_by_index=[n - count, n - 1],
                                      overwrite_a=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise EigenSolveError(f"symmetric eigensolver failed: {exc}") from exc
    else:
        operator = LinearOperator((n, n), matvec=reduced, dtype=float)
        try:
            mu, Y = eigsh(operator, k=count, which="LA", v0=np.ones(n),
                          tol=0 if vectors else _LEVELS_TOL,
                          ncv=None if vectors or count > 1 else min(n, 8))
        except ArpackError as exc:  # ArpackNoConvergence included
            raise EigenSolveError(f"Lanczos failed ({type(exc).__name__}): {exc}") from exc
    floor = n * np.finfo(float).eps * mu[-1]
    if not mu[0] > floor:
        raise InfiniteLevelError(f"only {np.count_nonzero(mu > floor)} of the {count} requested "
                                 "eigenvalues are finite")
    V = np.array([blas.dtrsv(L, y, lower=1, trans=1) for y in Y.T]).T
    return 1.0 / mu[::-1], V[:, ::-1]


def verified(lam: np.ndarray, V: np.ndarray, AV: np.ndarray, BV: np.ndarray, left_norm: float,
             right_norm: float) -> EigenDecomposition:
    """The pairs (lam, V) of left v = lambda right v, given AV = left @ V,
    BV = right @ V and the two infinity norms, once every pair meets the
    residual contract; EigenSolveError otherwise."""
    scale = left_norm + np.abs(lam) * right_norm
    residuals = _relative_residuals(AV - BV * lam[None, :], V, scale)
    return EigenDecomposition(eigenvalues=lam, eigenvectors=V, residuals=residuals)
