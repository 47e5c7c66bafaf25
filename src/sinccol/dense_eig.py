"""Dense real eigensolvers with verified residuals.

``eig`` delegates a nonsymmetric matrix to LAPACK's dgeev (balancing,
Hessenberg reduction, shifted QR) through scipy.  ``eigh_pencil`` finds
the lowest pairs of a symmetric-definite pencil from the Cholesky factor
of its left matrix: implicitly restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) needs only products with the reduced
operator, two triangular solves each, so the K x K matrix is never
tridiagonalized.  Only when nearly the whole spectrum is asked for, which
ARPACK cannot return, does the pencil go to dsygvx.  The per-pair residual
contract is verified here: every returned pair must satisfy

    ||A v - lambda v||_inf <= 1e-8 * ||A||_inf * ||v||_inf

for a matrix, and for a pencil A v = lambda B v

    ||A v - lambda B v||_inf <= 1e-8 * (||A||_inf + |lambda| ||B||_inf) * ||v||_inf.
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


def _pair_residuals(A: np.ndarray, w: np.ndarray, V: np.ndarray) -> np.ndarray:
    # Split the complex GEMM into real parts; for real spectra the
    # imaginary part is exactly zero and half the work is skipped.
    R = (A @ V.real).astype(complex)
    if np.any(V.imag):
        R += 1j * (A @ V.imag)
    R -= V * w[None, :]
    norm_a = np.max(np.sum(np.abs(A), axis=1))
    vec_inf = np.max(np.abs(V), axis=0)
    denom = np.maximum(norm_a * vec_inf, np.finfo(float).tiny)
    return np.max(np.abs(R), axis=0) / denom


def _check_contract(residuals: np.ndarray) -> None:
    worst = float(np.max(residuals))
    if worst > RESIDUAL_TOL:
        raise EigenSolveError(
            f"residual contract violated: max relative residual {worst:.3e} "
            f"exceeds {RESIDUAL_TOL:.1e}"
        )


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

    residuals = _pair_residuals(A, w, V)
    _check_contract(residuals)
    return EigenDecomposition(eigenvalues=w, eigenvectors=V, residuals=residuals)


_NOT_POSITIVE_DEFINITE = ("left matrix is not positive definite: the problem has a non-positive "
                          "lowest level; shift the potential up")


def _largest_reduced(left: np.ndarray, right, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest mu of right v = mu left v, ascending, by
    Lanczos on L^-1 right L^-T with left = L L^T factored in place."""
    n = left.shape[0]
    L, info = lapack.dpotrf(left, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise EigenSolveError(_NOT_POSITIVE_DEFINITE)

    def reduced(y):
        x = blas.dtrsv(L, y, lower=1, trans=1)
        return blas.dtrsv(L, right @ x, lower=1, overwrite_x=1)

    operator = LinearOperator((n, n), matvec=reduced, dtype=float)
    try:
        mu, Y = eigsh(operator, k=count, which="LA", v0=np.ones(n), tol=0)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise EigenSolveError(f"Lanczos failed ({type(exc).__name__}): {exc}") from exc
    return mu, scipy.linalg.solve_triangular(L, Y, lower=True, trans="T", check_finite=False)


def _largest_dense(left: np.ndarray, right, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest mu of right v = mu left v, ascending, by dsygvx."""
    n = left.shape[0]
    if scipy.sparse.issparse(right):
        right = right.toarray()
    try:
        return scipy.linalg.eigh(right, left, subset_by_index=[n - count, n - 1],
                                 overwrite_a=True, overwrite_b=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        if "positive definite" in str(exc):
            raise EigenSolveError(_NOT_POSITIVE_DEFINITE) from exc
        raise EigenSolveError(f"symmetric eigensolver failed: {exc}") from exc


def eigh_pencil(build: Callable[[], tuple[np.ndarray, np.ndarray | scipy.sparse.sparray]],
                count: int) -> EigenDecomposition:
    """Lowest ``count`` eigenpairs of left v = lambda right v, ascending.

    ``build()`` returns a fresh pair (left, right): ``left`` a dense n x n
    symmetric positive definite array, ``right`` a symmetric positive
    semidefinite n x n array or scipy sparse matrix.  It is called twice:
    the solve works in place in the first pair, and the residual contract
    is checked against the second, so that only one dense matrix is alive
    at a time.  A Fortran-ordered ``left`` avoids a copy.

    The roles are swapped: with the Cholesky factor L of ``left``, the
    bounded operator L^-1 right L^-T is searched for its ``count`` largest
    eigenvalues mu = 1/lambda only, so a singular or badly scaled
    ``right`` costs no accuracy in the low end of the spectrum.  Lanczos
    (ARPACK ``eigsh``, start vector all ones, so that repeated solves are
    bit-identical) applies the operator by two triangular solves, and the
    eigenvectors are v = L^-T y.  For ``count >= n - 1``, beyond ARPACK's
    reach, LAPACK dsygvx reduces the whole pencil instead.  Raises
    EigenSolveError if ``left`` is not positive definite, if Lanczos does
    not converge, if a requested mu is not positive (lambda infinite) or
    if any pair misses the residual contract.
    """
    left, right = build()
    n = left.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count must lie in [1, {n}], got {count}")
    solver = _largest_dense if count >= n - 1 else _largest_reduced
    mu, V = solver(left, right, count)
    del left, right
    if not mu[0] > 0.0:
        raise EigenSolveError(f"only {np.count_nonzero(mu > 0.0)} of the {count} requested "
                              "eigenvalues are finite")
    lam = 1.0 / mu[::-1]
    V = V[:, ::-1]

    left, right = build()
    R = left @ V - (right @ V) * lam[None, :]
    # LAPACK's norm needs no K x K temporary; right may be sparse
    scale = lapack.dlange("I", left) + np.abs(lam) * abs(right).sum(axis=1).max()
    denom = np.maximum(scale * np.max(np.abs(V), axis=0), np.finfo(float).tiny)
    residuals = np.max(np.abs(R), axis=0) / denom
    _check_contract(residuals)
    return EigenDecomposition(eigenvalues=lam, eigenvectors=V, residuals=residuals)
