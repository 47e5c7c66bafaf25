"""Tests for the dense eigensolver wrappers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from sinccol import RESIDUAL_TOL, EigenSolveError
from sinccol.collocation import _Pencil
from sinccol.dense_eig import InfiniteLevelError, eig, lowest, verified

from oracles import charpoly_coefficients, charpoly_eval, dense_right


def shifted_pencil(problem, sigma=0.0):
    """The pencil of ``problem`` shifted by ``sigma``: its rest is g - sigma u,
    with the border and corner of ``_Pencil.of``."""
    pencil = _Pencil.of(problem)
    rest = dataclasses.replace(pencil.rest, d=problem.g - sigma * problem.grid.weight)
    return dataclasses.replace(pencil, sigma=sigma, rest=rest)


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

    def test_nan_residual_fails_the_contract(self):
        from sinccol import dense_eig

        with pytest.raises(EigenSolveError, match=r"pair 1 has the non-finite relative residual nan"):
            dense_eig._relative_residuals(np.array([[1e-12, np.nan]]), np.ones((1, 2)), 1.0)

    def test_nan_product_is_reported(self, monkeypatch):
        import scipy.linalg

        from sinccol import dense_eig

        solve = scipy.linalg.eig

        def nan_vector(A):
            # a NaN in one eigenvector makes its residual product NaN
            w, V = solve(A)
            V[0, 1] = np.nan
            return w, V

        monkeypatch.setattr(dense_eig.scipy.linalg, "eig", nan_vector)
        with pytest.raises(EigenSolveError, match="non-finite"):
            dense_eig.eig(np.diag([1.0, 2.0, 3.0]))


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

    @staticmethod
    def solve(left, right, count):
        """The kernel on a fresh copy of ``left``, then the residual contract
        with the products and norms of the saved dense arrays."""
        lam, V = lowest(left.copy(), count, right.__matmul__)
        return verified(lam, V, left @ V, right @ V, np.abs(left).sum(1).max(),
                        np.abs(right).sum(1).max())

    def test_matches_generalized_eigenvalues(self):
        left, right = self.random_pencil(30, 7)
        dec = self.solve(left, right, 4)
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
        dec = self.solve(left, right, 2)
        assert np.allclose(dec.eigenvalues, [2.0, 5.0], rtol=1e-14)
        with pytest.raises(EigenSolveError, match="finite"):
            self.solve(left, right, 3)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_singular_right_matrix_under_lanczos(self, vectors):
        # ten zero weights: Lanczos returns their mu as roundoff, not 0, which
        # read as the levels 3.2e61 and 1.3e62 before the floor n eps mu_max
        left = np.diag(np.arange(1.0, 31.0))
        right = np.diag(np.r_[np.ones(20), np.zeros(10)])
        assert self.solve(left, right, 20).eigenvalues[-1] == pytest.approx(20.0, rel=1e-12)
        with pytest.raises(InfiniteLevelError, match="only 20 of the 22 requested"):
            lowest(left.copy(), 22, right.__matmul__, vectors=vectors)

    @pytest.mark.parametrize("count", [1, 4])
    def test_levels_only_match_the_full_lanczos(self, count):
        left, right = self.random_pencil(40, 11)
        full = lowest(left.copy(), count, right.__matmul__)[0]
        lam, V = lowest(left.copy(), count, right.__matmul__, vectors=False)
        assert np.max(np.abs(lam / full - 1.0)) <= 1e-14
        r = left @ V - right @ V * lam
        assert np.max(np.abs(r)) <= RESIDUAL_TOL * np.max(np.abs(left)) * np.max(np.abs(V))

    def test_indefinite_left_matrix(self):
        left = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(EigenSolveError, match="not positive definite"):
            self.solve(left, np.eye(3), 1)

    def test_count_validation(self):
        left, right = self.random_pencil(5, 1)
        for count in (0, 6):
            with pytest.raises(ValueError):
                self.solve(left, right, count)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2", None])
    def test_non_integer_count_is_refused_before_the_factorization(self, count):
        left, right = self.random_pencil(5, 1)
        left = np.asfortranarray(left)
        saved = left.copy()
        with pytest.raises(ValueError, match="count must be an integer"):
            lowest(left, count, right.__matmul__)
        # dpotrf would have overwritten the Fortran-ordered left in place
        assert np.array_equal(left, saved)

    def test_numpy_integer_count_is_accepted(self):
        left, right = self.random_pencil(30, 7)
        assert np.array_equal(self.solve(left, right, np.int64(4)).eigenvalues,
                              self.solve(left, right, 4).eigenvalues)

    @pytest.mark.parametrize("l", [0, 4])
    def test_lanczos_matches_dense_on_flagship_pencil(self, l):
        import scipy.linalg

        from sinccol import flagship_problem

        problem = flagship_problem(l, M=100)
        pencil = shifted_pencil(problem)
        left = pencil.dense_left()
        dense = dense_right(problem.grid)
        K, n = problem.grid.size, left.shape[0]
        # l = 0 is bordered: right is diag(u) plus one border row and column
        arrowhead = np.eye(n, dtype=bool)
        arrowhead[n - 1] = arrowhead[:, n - 1] = l == 0
        arrowhead[n - 1, n - 1] = True
        assert np.array_equal(dense != 0.0, arrowhead)
        assert np.count_nonzero(dense) == (3 * K + 1 if l == 0 else K)
        mu = scipy.linalg.eigh(dense, left, eigvals_only=True)
        want = np.sort(1.0 / mu[mu > 0.0])[:5]
        dec = pencil.eigh(5)
        assert np.allclose(dec.eigenvalues, want, rtol=1e-12, atol=0.0)
        assert np.all(dec.residuals <= RESIDUAL_TOL)

    def test_repeated_solves_are_bit_identical(self):
        left, right = self.random_pencil(60, 11)
        first, second = self.solve(left, right, 5), self.solve(left, right, 5)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    @staticmethod
    def flagship_pencil(l, M):
        from sinccol import flagship_problem

        return shifted_pencil(flagship_problem(l, M=M))

    def test_repeated_flagship_solves_are_bit_identical(self):
        # n = 1101, large enough for OpenBLAS to thread the Cholesky factorization
        pencil = self.flagship_pencil(4, 200)
        first, second = (pencil.eigh(5) for _ in range(2))
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_factor_is_used_in_place(self, monkeypatch):
        import tracemalloc

        pencil = self.flagship_pencil(4, 200)
        left = pencil.dense_left()
        n = left.shape[0]
        assert left.flags.f_contiguous
        # the dense left is built before the measurement
        monkeypatch.setattr(_Pencil, "dense_left", lambda self: left)
        tracemalloc.start()
        try:
            pencil.eigh(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of the n x n factor alone is 8 n^2 bytes
        assert peak < 8 * n * n / 4

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 30])
    def test_factor_is_never_inverted(self, count, monkeypatch):
        # every count, the dense branch (count >= n - 1) included, solves with L
        from sinccol import dense_eig

        calls = []
        dtrtri = dense_eig.lapack.dtrtri
        monkeypatch.setattr(dense_eig.lapack, "dtrtri",
                            lambda c, **kwargs: calls.append(c.shape) or dtrtri(c, **kwargs))
        left, right = self.random_pencil(30, 3)
        full = np.sort(eig(np.linalg.solve(right, left)).eigenvalues.real)
        assert np.allclose(self.solve(left, right, count).eigenvalues, full[:count], rtol=1e-10)
        assert calls == []

    @pytest.mark.parametrize("spare", [1, 0])
    def test_nearly_full_spectrum_takes_the_dense_branch(self, spare, monkeypatch):
        from sinccol import dense_eig

        def no_lanczos(*args, **kwargs):
            raise AssertionError("Lanczos called for count >= n - 1")

        monkeypatch.setattr(dense_eig, "eigsh", no_lanczos)
        n = 8
        left, right = self.random_pencil(n, 5)
        dec = self.solve(left, right, n - spare)
        full = np.sort(eig(np.linalg.solve(right, left)).eigenvalues.real)
        assert np.allclose(dec.eigenvalues, full[:n - spare], rtol=1e-10)
        assert np.all(dec.residuals <= RESIDUAL_TOL)

    @pytest.mark.parametrize("safe_shift", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 6, 7, 8])
    def test_one_factorization_at_every_count(self, count, safe_shift, monkeypatch):
        import scipy.linalg

        from sinccol import dense_eig

        n = 8
        left, right = self.random_pencil(n, 6)
        full = scipy.linalg.eigh(left, right, eigvals_only=True)
        shift = 0.9 * full[0] if safe_shift else 0.0
        left = left - shift * right
        factored, solved = [], []
        dpotrf, eigh = dense_eig.lapack.dpotrf, dense_eig.scipy.linalg.eigh

        def counting_dpotrf(a, **kwargs):
            factored.append(a.shape)
            return dpotrf(a, **kwargs)

        def one_matrix_eigh(a, b=None, **kwargs):
            assert b is None, "a generalized eigensolver was called"
            solved.append(a.shape)
            return eigh(a, **kwargs)

        monkeypatch.setattr(dense_eig.lapack, "dpotrf", counting_dpotrf)
        monkeypatch.setattr(dense_eig.scipy.linalg, "eigh", one_matrix_eigh)
        dec = self.solve(left, right, count)
        assert factored == [(n, n)]
        assert solved == ([(n, n)] if count >= n - 1 else [])
        assert np.allclose(shift + dec.eigenvalues, full[:count], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_nearly_full_spectrum_matches_the_generalized_solve_on_flagship_grids(
            self, l, M, monkeypatch):
        import scipy.linalg

        from sinccol import dense_eig, flagship_problem, solve

        def no_lanczos(*args, **kwargs):
            raise AssertionError("Lanczos called for count >= n - 1")

        problem = flagship_problem(l, M=M)
        left = shifted_pencil(problem).dense_left()
        n = left.shape[0]
        mu = scipy.linalg.eigh(dense_right(problem.grid), left,
                               eigvals_only=True)
        reference = np.sort(1.0 / mu[mu > 0.0])
        monkeypatch.setattr(dense_eig, "eigsh", no_lanczos)
        # the bordered l = 0 pencil has n = K + 1, and solve takes at most K pairs
        for count in range(n - 1, problem.grid.size + 1):
            got = [pair.eigenvalue for pair in solve(problem, count)]
            assert np.allclose(got, reference[:count], rtol=1e-10, atol=0.0)

    def test_dense_eigensolver_failure_is_reported(self, monkeypatch):
        import scipy.linalg

        from sinccol import dense_eig

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("synthetic non-convergence")

        monkeypatch.setattr(dense_eig.scipy.linalg, "eigh", fail)
        left, right = self.random_pencil(8, 2)
        with pytest.raises(EigenSolveError, match="symmetric eigensolver failed: synthetic"):
            self.solve(left, right, 7)

    def test_lanczos_non_convergence_is_reported(self, monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        from sinccol import dense_eig

        def fail(*args, **kwargs):
            raise ArpackNoConvergence("synthetic non-convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(dense_eig, "eigsh", fail)
        left, right = self.random_pencil(30, 2)
        with pytest.raises(EigenSolveError, match="ArpackNoConvergence"):
            self.solve(left, right, 4)

    def test_nan_product_is_reported(self):
        left, right = self.random_pencil(30, 4)
        norm = np.abs(left).sum(1).max()
        lam, V = lowest(left, 4, right.__matmul__)
        with pytest.raises(EigenSolveError, match="non-finite"):
            verified(lam, V, np.full(V.shape, np.nan), right @ V, norm,
                     np.abs(right).sum(1).max())

    @pytest.mark.parametrize("l", [0, 4])
    def test_perturbed_product_breaks_the_contract(self, l, monkeypatch):
        from sinccol import flagship_problem

        pencil = shifted_pencil(flagship_problem(l, M=25))
        times = _Pencil.left_times

        def perturbed(self, V):
            product = times(self, V)
            return product + 1e-6 * np.max(np.abs(product))

        assert np.all(pencil.eigh(5).residuals <= RESIDUAL_TOL)
        monkeypatch.setattr(_Pencil, "left_times", perturbed)
        with pytest.raises(EigenSolveError, match="residual contract violated"):
            pencil.eigh(5)

    @staticmethod
    def peak_normalized(V):
        """Columns scaled to +1 at their largest-magnitude entry."""
        return V / V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("l", [1, 4])
    def test_shifted_pencil_matches_the_unshifted_one(self, l, count):
        from sinccol import flagship_problem

        problem = flagship_problem(l, M=100)
        shift = _Pencil.of(problem).sigma
        assert shift > 0.0
        plain = shifted_pencil(problem).eigh(count)
        shifted = shifted_pencil(problem, shift).eigh(count)
        assert np.allclose(shift + shifted.eigenvalues, plain.eigenvalues, rtol=1e-13, atol=0.0)
        assert np.all(shifted.residuals <= RESIDUAL_TOL)
        assert np.allclose(self.peak_normalized(shifted.eigenvectors),
                           self.peak_normalized(plain.eigenvectors), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("count", [3, 7])
    def test_shifted_random_pencil_matches_the_unshifted_one(self, count):
        # count 7 of n = 8 takes the dense solve of the same shifted, factored operator
        left, right = self.random_pencil(8, 9)
        plain = self.solve(left, right, count)
        shift = 0.9 * plain.eigenvalues[0]
        shifted = self.solve(left - shift * right, right, count)
        assert np.allclose(shift + shifted.eigenvalues, plain.eigenvalues, rtol=1e-13, atol=0.0)
        assert np.allclose(self.peak_normalized(shifted.eigenvectors),
                           self.peak_normalized(plain.eigenvectors), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("count", [5, 7])
    def test_shift_above_the_lowest_level_is_reported(self, count):
        left, right = self.random_pencil(8, 9)
        lowest = self.solve(left, right, 1).eigenvalues[0]
        with pytest.raises(EigenSolveError, match="not positive definite"):
            self.solve(left - (lowest + 0.01) * right, right, count)


class TestRitz:
    """_Pencil.ritz: Rayleigh-Ritz on a given basis, verified on the full
    pencil, with dense references from ``dense_left`` and ``dense_right``."""

    # l = 0 is bordered; at M = 100 its n = 3 state is not yet resolved,
    # and left_form is exact only for resolved columns
    GRIDS = [(0, 200), (4, 100)]

    @staticmethod
    def sinc_pencil(l, M):
        """The pencil of the flagship problem and its dense left and right
        matrices."""
        from sinccol import flagship_problem

        problem = flagship_problem(l, M=M)
        pencil = _Pencil.of(problem)
        return pencil, pencil.dense_left(), dense_right(problem.grid)

    @pytest.mark.parametrize("l, M", GRIDS)
    def test_exact_basis_gives_the_lowest_pairs(self, l, M):
        pencil, _, _ = self.sinc_pencil(l, M)
        want = pencil.eigh(4)
        # any basis of the same span, mixed and scaled
        mix = np.random.default_rng(3).standard_normal((4, 4)) + 4.0 * np.eye(4)
        got = pencil.ritz(want.eigenvectors @ mix)
        assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=1e-12, atol=0.0)
        assert np.allclose(TestPencil.peak_normalized(got.eigenvectors),
                           TestPencil.peak_normalized(want.eigenvectors), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("l, M", GRIDS)
    def test_residuals_are_those_of_the_full_pencil(self, l, M):
        pencil, left, right = self.sinc_pencil(l, M)
        exact = pencil.eigh(3).eigenvectors
        X = exact + 1e-11 * np.random.default_rng(5).standard_normal(exact.shape)
        got = pencil.ritz(X)
        V, lam = got.eigenvectors, got.eigenvalues
        scale = np.abs(left).sum(1).max() + np.abs(lam) * np.abs(right).sum(1).max()
        want = (np.max(np.abs(left @ V - right @ V * lam), axis=0)
                / (scale * np.max(np.abs(V), axis=0)))
        assert np.all(got.residuals > 0.0)
        assert np.allclose(got.residuals, want, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("l, M", GRIDS)
    def test_a_basis_far_from_eigenvectors_misses_the_contract(self, l, M):
        pencil, left, _ = self.sinc_pencil(l, M)
        X = np.random.default_rng(11).standard_normal((left.shape[0], 3))
        with pytest.raises(EigenSolveError, match="residual contract violated"):
            pencil.ritz(X)

    @pytest.mark.parametrize("l, M", GRIDS)
    def test_dependent_basis_is_reported(self, l, M):
        pencil, left, _ = self.sinc_pencil(l, M)
        # a zero column makes X^T R X exactly singular
        x = np.ones((left.shape[0], 1))
        with pytest.raises(EigenSolveError, match="Rayleigh-Ritz"):
            pencil.ritz(np.hstack((x, 0.0 * x)))

    @pytest.mark.parametrize("l, M", GRIDS + [(0, 100)])
    def test_repeated_basis_vector_is_named_a_dependent_basis(self, l, M):
        # X^T R X is singular; at l = 0 and 4, M = 100 its Cholesky
        # factorization succeeds by rounding, so without the check the pairs
        # only missed the residual contract (relative residual 0.16 and 0.18)
        pencil, left, _ = self.sinc_pencil(l, M)
        x = np.ones((left.shape[0], 1))
        with pytest.raises(EigenSolveError, match="Rayleigh-Ritz projection failed: the 2 basis "
                                                  "vectors are linearly dependent"):
            pencil.ritz(np.hstack((x, x)))
