"""Dense real eigensolvers with verified residuals.

``eig`` delegates a nonsymmetric matrix to LAPACK's dgeev (balancing,
Hessenberg reduction, shifted QR) through scipy.  ``eigh_pencil`` finds
the lowest pairs of a symmetric-definite pencil from the Cholesky factor
L of its left matrix: implicitly restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) needs only products with the reduced
operator, two triangular solves with L (dtrsv) each, so the K x K
matrix is never tridiagonalized.  Only for nearly the whole spectrum,
which ARPACK cannot return, is the reduced matrix formed from the same
operator and diagonalized densely.  A caller that knows a lower bound
sigma on the lowest level passes it as ``shift``: the solve then factors
left - sigma right, which is positive definite exactly when sigma lies
below every level, and searches mu = 1/(lambda - sigma), whose largest
values stand farther apart than those of 1/lambda, so Lanczos needs
fewer steps (Ericsson & Ruhe, Math. Comp. 35 (1980) 1251).

The caller passes the dense left matrix, which the solve overwrites,
together with the product V -> left @ V and the norm ||left||_inf of the
unshifted left, which it computes from the matrix's structure (for the
sinc pencil a Toeplitz product by FFT), so the residual needs no second
dense matrix.  One function verifies the per-pair residual contract for
both: every returned pair must satisfy

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
import scipy.sparse
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

__all__ = ["EigenDecomposition", "EigenSolveError", "RESIDUAL_TOL", "eig", "eigh_pencil"]

RESIDUAL_TOL = 1e-8


class EigenSolveError(RuntimeError):
    """Raised when an eigensolve fails to converge or violates its contract."""


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


def _largest(left: np.ndarray, right, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest mu of right v = mu left v, ascending, from the
    reduced operator L^-1 right L^-T, left = L L^T factored in place: by
    Lanczos, or for ``count >= n - 1`` by a dense symmetric eigensolve of
    its matrix."""
    n = left.shape[0]
    L, info = lapack.dpotrf(left, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise EigenSolveError("left matrix is not positive definite: the lowest level is not "
                              "above the shift (0 unless one is given); shift the potential up")

    def reduced(y):
        x = blas.dtrsv(L, y, lower=1, trans=1)
        return blas.dtrsv(L, right @ x, lower=1, overwrite_x=1)

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


def eigh_pencil(left: np.ndarray, right: np.ndarray | scipy.sparse.sparray, count: int,
                left_times: Callable[[np.ndarray], np.ndarray], left_norm: float, *,
                shift: float = 0.0) -> EigenDecomposition:
    """Lowest ``count`` eigenpairs of left v = lambda right v, ascending.

    ``left`` is a dense n x n symmetric array, positive definite less
    ``shift`` times right, which the solve overwrites (a Fortran-ordered
    one avoids a copy); ``right`` is a symmetric positive semidefinite
    n x n array or scipy sparse matrix, left unchanged.  The residual
    contract takes its product and norm from ``left_times(V)``, the
    product left @ V for an n x k array V, and ``left_norm``, the infinity
    norm of left, so the dense left is built once; a structured caller
    computes them from the matrix's pieces, which also checks the pairs
    against a second construction of the same matrix.  ``count`` must be
    an integer in [1, n].

    The roles are swapped: with the Cholesky factor L of ``left``, the
    bounded operator L^-1 right L^-T is searched for its ``count`` largest
    eigenvalues mu = 1/lambda only, so a singular or badly scaled ``right``
    costs no accuracy in the low end of the spectrum.  Lanczos (ARPACK
    ``eigsh``, start vector all ones, so that repeated solves are
    bit-identical) applies the operator by two triangular solves with L
    (dtrsv); the eigenvectors are v = L^-T y.  For ``count >= n - 1``,
    beyond ARPACK's reach, the same operator is applied to the n unit
    vectors and the resulting n x n matrix is diagonalized densely
    (``scipy.linalg.eigh``), with the same factor and back-transform.

    A finite ``shift`` sigma below the lowest level is subtracted first:
    ``left`` becomes left - sigma right in its own storage, L is its
    factor, mu = 1/(lambda - sigma), lambda = sigma + 1/mu, and the
    eigenvectors are scaled to v^T (left - sigma right) v = 1.  The
    residual contract still takes the unshifted ``left_times`` and
    ``left_norm``.  A non-finite shift is a ValueError.

    Raises EigenSolveError if ``left`` (less the shift) is not positive
    definite, if Lanczos or the dense eigensolve does not converge, if a
    requested mu is not positive (lambda infinite) or if any pair misses
    the residual contract, a non-finite residual included.
    """
    n = left.shape[0]
    _validate_count(count, n)
    if not np.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")
    if shift:
        right_entries = scipy.sparse.coo_array(right)
        np.subtract.at(left, (right_entries.row, right_entries.col), shift * right_entries.data)
    mu, V = _largest(left, right, count)
    if not mu[0] > 0.0:
        raise EigenSolveError(f"only {np.count_nonzero(mu > 0.0)} of the {count} requested "
                              "eigenvalues are finite")
    lam = shift + 1.0 / mu[::-1]
    V = V[:, ::-1]
    # right may be sparse
    scale = left_norm + np.abs(lam) * abs(right).sum(axis=1).max()
    residuals = _relative_residuals(left_times(V) - (right @ V) * lam[None, :], V, scale)
    return EigenDecomposition(eigenvalues=lam, eigenvectors=V, residuals=residuals)
