"""Tests for the dense eigensolver wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from sinccol import RESIDUAL_TOL, EigenSolveError, eig, eigh_pencil

from oracles import charpoly_coefficients, charpoly_eval


def sorted_eigs(w):
    return np.sort_complex(np.asarray(w))


class TestKnownSpectra:
    def test_identity(self):
        dec = eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_diagonal(self):
        dec = eig(np.diag([2.0, -1.0, 0.5]))
        assert np.allclose(sorted_eigs(dec.eigenvalues), sorted_eigs([-1.0, 0.5, 2.0]))

    def test_rotation_generator(self):
        dec = eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(sorted_eigs(dec.eigenvalues), sorted_eigs([1j, -1j]), atol=1e-14)

    def test_single_entry(self):
        dec = eig(np.array([[3.5]]))
        assert dec.eigenvalues[0] == pytest.approx(3.5)

    def test_residuals_and_vectors(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((40, 40))
        dec = eig(A)
        assert dec.eigenvalues.shape == (40,)
        assert dec.eigenvectors.shape == (40, 40)
        assert np.all(dec.residuals <= RESIDUAL_TOL)
        assert np.all(np.max(np.abs(dec.eigenvectors), axis=0) > 0.0)
        # residuals are what they claim to be
        j = 5
        r = A @ dec.eigenvectors[:, j] - dec.eigenvalues[j] * dec.eigenvectors[:, j]
        norm_a = np.max(np.sum(np.abs(A), axis=1))
        expect = np.max(np.abs(r)) / (norm_a * np.max(np.abs(dec.eigenvectors[:, j])))
        assert dec.residuals[j] == pytest.approx(expect, rel=1e-10)


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            eig(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        A = np.eye(3)
        A[1, 2] = np.inf
        with pytest.raises(ValueError):
            eig(A)

    def test_convergence_failure_is_reported(self, monkeypatch):
        import scipy.linalg

        from sinccol import EigenSolveError, dense_eig

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("synthetic non-convergence")

        monkeypatch.setattr(dense_eig.scipy.linalg, "eig", fail)
        with pytest.raises(EigenSolveError, match="converge"):
            dense_eig.eig(np.eye(2))


class TestProperties:
    # entry magnitudes bounded away from the underflow range, where LAPACK
    # products denormalize and no eigensolver can meet the residual contract
    _entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))

    @given(npst.arrays(np.float64, npst.array_shapes(min_dims=2, max_dims=2,
                                                     min_side=1, max_side=8),
                       elements=_entries).filter(lambda a: a.shape[0] == a.shape[1]))
    @settings(max_examples=60, deadline=None)
    def test_characteristic_polynomial_root(self, A):
        dec = eig(A)
        coeffs = charpoly_coefficients(A)
        K = A.shape[0]
        scale = max(1.0, 2.0 * float(np.max(np.sum(np.abs(A), axis=1))))
        vals = charpoly_eval(coeffs, dec.eigenvalues)
        assert np.all(np.abs(vals) <= 1e-6 * scale**K)

    def test_permutation_similarity(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((12, 12))
        P = np.eye(12)[rng.permutation(12)]
        w1 = sorted_eigs(eig(A).eigenvalues)
        w2 = sorted_eigs(eig(P @ A @ P.T).eigenvalues)
        assert np.all(np.abs(w1 - w2) <= 1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((25, 25))
        d1, d2 = eig(A), eig(A.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


class TestPencil:
    @staticmethod
    def random_pencil(n, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, n))
        left = X @ X.T + n * np.eye(n)
        right = np.diag(rng.uniform(0.1, 2.0, n))
        return left, right

    def test_matches_generalized_eigenvalues(self):
        left, right = self.random_pencil(30, 7)
        dec = eigh_pencil(lambda: (left.copy(), right.copy()), 4)
        # reference: the full spectrum of right^-1 left, by the nonsymmetric solver
        full = np.sort(eig(np.linalg.solve(right, left)).eigenvalues.real)
        assert np.allclose(dec.eigenvalues, full[:4], rtol=1e-10)
        assert np.all(np.diff(dec.eigenvalues) > 0.0)
        assert np.all(dec.residuals <= RESIDUAL_TOL)
        r = left @ dec.eigenvectors - right @ dec.eigenvectors * dec.eigenvalues
        assert np.max(np.abs(r)) <= 1e-10 * np.max(np.abs(left))

    def test_singular_right_matrix(self):
        # a zero weight is an infinite eigenvalue, never one of the lowest
        left = np.diag([2.0, 3.0, 5.0])
        right = np.diag([1.0, 0.0, 1.0])
        dec = eigh_pencil(lambda: (left.copy(), right.copy()), 2)
        assert np.allclose(dec.eigenvalues, [2.0, 5.0], rtol=1e-14)
        with pytest.raises(EigenSolveError, match="finite"):
            eigh_pencil(lambda: (left.copy(), right.copy()), 3)

    def test_indefinite_left_matrix(self):
        left = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(EigenSolveError, match="not positive definite"):
            eigh_pencil(lambda: (left.copy(), np.eye(3)), 1)

    def test_count_validation(self):
        left, right = self.random_pencil(5, 1)
        for count in (0, 6):
            with pytest.raises(ValueError):
                eigh_pencil(lambda: (left.copy(), right.copy()), count)

    @pytest.mark.parametrize("l", [0, 4])
    def test_lanczos_matches_dense_on_flagship_pencil(self, l):
        import scipy.linalg
        import scipy.sparse

        from sinccol import flagship_problem
        from sinccol.collocation import _pencil_matrices

        problem = flagship_problem(l, M=100)
        build = lambda: _pencil_matrices(problem)
        left, right = build()
        assert scipy.sparse.issparse(right)
        K = problem.grid.size
        # l = 0 is bordered: right is diag(u) plus one border row and column
        assert right.nnz == (3 * K + 1 if l == 0 else K)
        mu = scipy.linalg.eigh(right.toarray(), left, eigvals_only=True)
        dense = np.sort(1.0 / mu[mu > 0.0])[:5]
        dec = eigh_pencil(build, 5)
        assert np.allclose(dec.eigenvalues, dense, rtol=1e-12, atol=0.0)
        assert np.all(dec.residuals <= RESIDUAL_TOL)

    def test_repeated_solves_are_bit_identical(self):
        left, right = self.random_pencil(60, 11)
        build = lambda: (left.copy(), right.copy())
        first, second = eigh_pencil(build, 5), eigh_pencil(build, 5)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    @pytest.mark.parametrize("spare", [1, 0])
    def test_nearly_full_spectrum_takes_the_dense_branch(self, spare, monkeypatch):
        from sinccol import dense_eig

        def no_lanczos(*args, **kwargs):
            raise AssertionError("Lanczos called for count >= n - 1")

        monkeypatch.setattr(dense_eig, "eigsh", no_lanczos)
        n = 8
        left, right = self.random_pencil(n, 5)
        dec = eigh_pencil(lambda: (left.copy(), right.copy()), n - spare)
        full = np.sort(eig(np.linalg.solve(right, left)).eigenvalues.real)
        assert np.allclose(dec.eigenvalues, full[:n - spare], rtol=1e-10)
        assert np.all(dec.residuals <= RESIDUAL_TOL)

    def test_lanczos_non_convergence_is_reported(self, monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        from sinccol import dense_eig

        def fail(*args, **kwargs):
            raise ArpackNoConvergence("synthetic non-convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(dense_eig, "eigsh", fail)
        left, right = self.random_pencil(30, 2)
        with pytest.raises(EigenSolveError, match="ArpackNoConvergence"):
            eigh_pencil(lambda: (left.copy(), right.copy()), 4)
