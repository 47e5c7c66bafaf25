"""Dense real eigensolvers with verified residuals.

``eig`` delegates a nonsymmetric matrix to LAPACK's dgeev (balancing,
Hessenberg reduction, shifted QR) through scipy.  ``eigh_pencil`` finds
the lowest pairs of a symmetric-definite pencil from the Cholesky factor
L of its left matrix: implicitly restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) needs only products with the reduced
operator, two triangular solves with L (dtrsv) each, so the K x K
matrix is never tridiagonalized.  Only for nearly the whole spectrum,
which ARPACK cannot return, is the reduced matrix formed from the same
operator and diagonalized densely.  ``ritz_pencil`` needs no dense matrix
at all: it projects the pencil onto a given basis, such as the lifted
eigenvectors of a coarser grid's pencil, and returns the Ritz pairs.

The caller passes the dense left matrix, which the solve overwrites,
together with the product V -> left @ V and the norm ||left||_inf, which
it computes from the matrix's structure (for the sinc pencil a Toeplitz
product by FFT), so the residual needs no second dense matrix.  The right
matrix is passed the same way, as its product V -> right @ V and its
norm ||right||_inf, and never as a matrix (for the sinc pencil a
diagonal, or an arrowhead, applied as O(n) array operations).  One
function verifies the per-pair residual contract for all three solvers,
``ritz_pencil`` included, on the pencil it was given: every returned
pair must satisfy

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

__all__ = ["EigenDecomposition", "EigenSolveError", "InfiniteLevelError", "RESIDUAL_TOL", "eig",
           "eigh_pencil", "ritz_pencil"]

RESIDUAL_TOL = 1e-8


class EigenSolveError(RuntimeError):
    """Raised when an eigensolve fails to converge or violates its contract."""


class InfiniteLevelError(EigenSolveError):
    """Raised when a requested eigenvalue of a pencil is not finite: the
    pencil has fewer finite levels than were asked for."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a real K x K matrix or pencil.

    ``eig`` returns all K pairs in no particular order, ``eigh_pencil``
    the requested lowest ones in ascending order.  ``eigenvectors[:, j]``
    belongs to ``eigenvalues[j]``; ``residuals[j]`` is the relative
    infinity-norm residual of that pair.
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
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
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


def _largest(left: np.ndarray, count: int,
             right_times: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest mu of right v = mu left v, ascending, from the
    reduced operator L^-1 right L^-T, left = L L^T factored in place: by
    Lanczos, or for ``count >= n - 1`` by a dense symmetric eigensolve of
    its matrix."""
    n = left.shape[0]
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
            mu, Y = eigsh(operator, k=count, which="LA", v0=np.ones(n), tol=0)
        except ArpackError as exc:  # ArpackNoConvergence included
            raise EigenSolveError(f"Lanczos failed ({type(exc).__name__}): {exc}") from exc
    return mu, np.array([blas.dtrsv(L, y, lower=1, trans=1) for y in Y.T]).T


def eigh_pencil(left: np.ndarray, count: int, left_times: Callable[[np.ndarray], np.ndarray],
                left_norm: float, right_times: Callable[[np.ndarray], np.ndarray],
                right_norm: float) -> EigenDecomposition:
    """Lowest ``count`` eigenpairs of left v = lambda right v, ascending.

    ``left`` is a dense n x n symmetric positive definite array, which
    the solve overwrites (a Fortran-ordered one avoids a copy).  The
    residual contract takes its product and norm from ``left_times(V)``,
    the product left @ V for an n x k array V, and ``left_norm``, the
    infinity norm of left, so the dense left is built once; a structured
    caller computes them from the matrix's pieces, which also checks the
    pairs against a second construction of the same matrix.  The
    symmetric positive semidefinite right matrix is given only as
    ``right_times(V)``, the product right @ V for an n-vector or an n x k
    array V, and ``right_norm``, its infinity norm; an array ``B`` passes
    ``B.__matmul__`` and ``np.abs(B).sum(1).max()``.  ``count`` must be an
    integer in [1, n].

    The roles are swapped: with the Cholesky factor L of ``left``, the
    bounded operator L^-1 right L^-T is searched for its ``count`` largest
    eigenvalues mu = 1/lambda only, so a singular or badly scaled right
    matrix costs no accuracy in the low end of the spectrum.  Lanczos (ARPACK
    ``eigsh``, start vector all ones, so that repeated solves are
    bit-identical) applies the operator by two triangular solves with L
    (dtrsv); the eigenvectors are v = L^-T y.  For ``count >= n - 1``,
    beyond ARPACK's reach, the same operator is applied to the n unit
    vectors and the resulting n x n matrix is diagonalized densely
    (``scipy.linalg.eigh``), with the same factor and back-transform.

    Raises EigenSolveError if ``left`` is not positive definite, if
    Lanczos or the dense eigensolve does not converge, if a requested mu
    is not positive (lambda infinite) or if any pair misses the residual
    contract, a non-finite residual included.
    """
    n = left.shape[0]
    _validate_count(count, n)
    mu, V = _largest(left, count, right_times)
    if not mu[0] > 0.0:
        raise InfiniteLevelError(f"only {np.count_nonzero(mu > 0.0)} of the {count} requested "
                                 "eigenvalues are finite")
    lam = 1.0 / mu[::-1]
    V = V[:, ::-1]
    return _verified(lam, V, left_times(V), right_times(V), left_norm, right_norm)


def ritz_pencil(X: np.ndarray, left_times: Callable[[np.ndarray], np.ndarray], left_norm: float,
                left_form: Callable[[np.ndarray], np.ndarray],
                right_times: Callable[[np.ndarray], np.ndarray],
                right_norm: float) -> EigenDecomposition:
    """The Rayleigh-Ritz pairs of left v = lambda right v on the span of the
    columns of the n x k array X, ascending, verified by the pencil's
    residual contract.

    ``left_times``, ``left_norm``, ``right_times`` and ``right_norm`` are as
    for ``eigh_pencil``;
    the dense left matrix is not needed.  The k x k projections X^T left X
    and X^T right X form a small symmetric-definite pencil, and its pairs
    (theta, y) give the Ritz pairs (theta, X y), whose products with left
    and right are the projections' factors times y, so the contract costs
    no further product.  ``left_form(X)`` is X^T left X, which a structured
    caller computes more accurately than X^T ``left_times(X)``: a rounding
    error e in it mixes Ritz vectors whose levels lie g apart by about e/g.
    The pairs are the lowest of the pencil only when X nearly spans its
    lowest eigenvectors; the contract checks that they are eigenpairs, not
    which ones.

    Raises EigenSolveError if X^T right X is not positive definite or any
    pair misses the residual contract.
    """
    AX, BX = left_times(X), right_times(X)
    small_left, small_right = left_form(X), X.T @ BX
    try:
        theta, Y = scipy.linalg.eigh((small_left + small_left.T) / 2.0,
                                     (small_right + small_right.T) / 2.0, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigenSolveError(f"Rayleigh-Ritz projection failed: {exc}") from exc
    return _verified(theta, X @ Y, AX @ Y, BX @ Y, left_norm, right_norm)


def _verified(lam: np.ndarray, V: np.ndarray, AV: np.ndarray, BV: np.ndarray, left_norm: float,
              right_norm: float) -> EigenDecomposition:
    """The pairs (lam, V) of the pencil whose products with V are AV and BV,
    once every pair meets the pencil's residual contract."""
    scale = left_norm + np.abs(lam) * right_norm
    residuals = _relative_residuals(AV - BV * lam[None, :], V, scale)
    return EigenDecomposition(eigenvalues=lam, eigenvectors=V, residuals=residuals)
