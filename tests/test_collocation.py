"""Tests for assembly and solution of the collocation eigenproblem."""

import contextlib
import dataclasses
import math
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

from sinccol import (
    EigenSolveError,
    assemble,
    build_grid,
    flagship_problem,
    reconstruct,
    solve,
)
from sinccol.sinc import SincGrid

from oracles import count_sign_changes, dense_right, shooting_eigenvalues

D4 = math.pi / 4


def synthetic_grid(a, M, N):
    """Grid with a chosen step, for structural checks outside the builder."""
    m = np.arange(-M, N + 1)
    ma = m * a
    e2m = np.exp(-2.0 * ma)
    weight, omega = 1.0 / (1.0 + e2m), e2m / (1.0 + e2m)
    return SincGrid(alpha=1.0, M=M, N=N, a=a, points=np.arcsinh(np.exp(ma)),
                    phi1=np.sqrt(1.0 + e2m), weight=weight, dr=omega,
                    liouville=omega * (1.0 + 3.0 * weight) / 4.0)


def de_size(grid):
    """The number of nodes of the DE coarse grid inside ``grid``'s x-range."""
    from sinccol.collocation import _DE_STEP
    from sinccol.sinc import _de_grid

    return _de_grid(grid, _DE_STEP).size


def de_vectors_decayed(problem, count):
    """Whether the lowest ``count`` vectors of the DE pencil of ``problem`` end
    at or below _DECAYED of their peak at both ends of the DE grid."""
    import sinccol.collocation as collocation
    from sinccol.sinc import _de_grid

    de = assemble(_de_grid(problem.grid, collocation._DE_STEP), problem.potential)
    V = collocation._Pencil.of(de).eigh(count).eigenvectors
    ends = np.maximum(np.abs(V[0]), np.abs(V[-1]))
    return bool(np.all(ends <= collocation._DECAYED * np.max(np.abs(V), axis=0)))


class TestAssemble:
    def test_diagonal_entries(self):
        grid = build_grid(1.0, 1.0, D4, 12)
        pot = lambda x: np.cos(x)
        A = assemble(grid, pot).matrix
        e2m = np.exp(-2.0 * grid.indices * grid.a)
        expect = np.cos(grid.points) + math.pi**2 / 3.0 * (1.0 + e2m) / grid.a**2
        assert np.allclose(np.diag(A), expect, rtol=1e-14)

    def test_off_diagonal_zero_potential(self):
        # first superdiagonal: delta1 = -1 and delta2 = 2*(-1)^(1+1) = +2
        grid = build_grid(1.0, 1.0, D4, 10)
        A = assemble(grid, lambda x: 0.0 * x).matrix
        a = grid.a
        for n in range(grid.size - 1):
            m_log = n + 1 - grid.M  # logical column index
            e2m = math.exp(-2.0 * m_log * a)
            expect = e2m / a * (-1.0) - (1.0 + e2m) / a**2 * 2.0
            assert A[n, n + 1] == pytest.approx(expect, rel=1e-14)

    def test_potential_contributes_diagonally_only(self):
        grid = build_grid(1.0, 1.0, D4, 8)
        diff = assemble(grid, lambda x: np.log(x)).matrix - assemble(grid, lambda x: 0.0 * x).matrix
        assert np.allclose(diff, np.diag(np.diag(diff)))

    def test_structural_form_unit_step(self):
        # with a = 1, M = N and zero potential the matrix reduces to
        # -(1 + e^(-2m)) d2 + e^(-2m) d1, column-scaled
        grid = synthetic_grid(1.0, 6, 6)
        A = assemble(grid, lambda x: 0.0 * x).matrix
        from sinccol.sinc import build_deltas

        deltas = build_deltas(grid)
        e2m = np.exp(-2.0 * grid.indices.astype(float))
        expect = deltas.d1 * e2m[None, :] - deltas.d2 * (1.0 + e2m)[None, :]
        assert np.allclose(A, expect, rtol=1e-15, atol=0.0)

    def test_nonfinite_potential_rejected(self):
        grid = build_grid(1.0, 1.0, D4, 8)
        with pytest.raises(ValueError):
            assemble(grid, lambda x: np.where(x > 1.0, np.inf, 1.0))

    def test_matrix_finite(self):
        problem = assemble(build_grid(0.5, 1.0, D4, 100),
                           lambda x: -1.0 / (4.0 * x**2) + np.log(x))
        assert np.all(np.isfinite(problem.matrix))

    def test_problem_holds_no_dense_matrix(self):
        # the K x K matrix is built only when ``matrix`` is read, so an
        # assembled problem costs O(K) memory through the solve
        grid = build_grid(1.5, 1.0, D4, 20)
        for problem in (assemble(grid, lambda x: 3.0 / (4.0 * x**2) + np.log(x)),
                        flagship_problem(0, M=20)):
            for field in dataclasses.fields(problem):
                value = getattr(problem, field.name)
                assert not (isinstance(value, np.ndarray) and value.ndim == 2), field.name


class TestMapData:
    """The grid holds u, the Liouville term and the border for its own map,
    and ``assemble`` forms g from them."""

    @pytest.mark.parametrize("l", range(5))
    def test_paper_map_gives_the_closed_forms(self, l):
        from sinccol.coulomb import log_coulomb_potential

        # g = u q + omega (1 + 3u)/4, u = 1/(1 + e^(-2ma)), omega = 1 - u, bit for
        # bit, on the grid and a window, each from e^(-2ma) of the grid's own
        # nodes
        grid = build_grid(l + 0.5, 1.0, D4, 60)
        q = log_coulomb_potential(l)
        e2m = np.exp(-2.0 * (grid.indices * grid.a))
        m = grid.indices
        for sub, kept in ((grid, m == m), (grid.window(-25, 20), (-25 <= m) & (m <= 20))):
            u, omega = 1.0 / (1.0 + e2m[kept]), e2m[kept] / (1.0 + e2m[kept])
            problem = assemble(sub, q)
            assert np.array_equal(sub.weight, u) and np.array_equal(sub.dr, omega)
            assert np.array_equal(problem.g, u * q(sub.points) + omega * (1.0 + 3.0 * u) / 4.0)
            assert sub.bordered == (l == 0)

    def test_de_grid_gives_the_de_map_data(self):
        from sinccol.collocation import _DE_STEP
        from sinccol.sinc import _de_grid, _de_map

        # u = psi'^2 and r'^2/4 - r''/2 of the DE map at the nodes t = m h inside
        # the x-range of the grid it is formed for
        like = build_grid(2.5, 1.0, D4, 200)
        grid = _de_grid(like, _DE_STEP)
        t = grid.indices * _DE_STEP
        x, dpsi, dr, ddr = _de_map(t)
        assert grid.a == _DE_STEP and np.array_equal(grid.points, x)
        assert like.points[0] <= grid.points[0] and grid.points[-1] <= like.points[-1]
        assert np.array_equal(grid.weight, np.square(dpsi))
        assert np.array_equal(grid.liouville, np.square(dr) / 4.0 - ddr / 2.0)
        q = lambda x: 15.0 / (4.0 * x**2) + np.log(x)
        problem = assemble(grid, q)
        assert np.array_equal(problem.g, grid.weight * q(grid.points) + grid.liouville)
        assert not grid.bordered


@pytest.fixture(scope="module")
def log_l1():
    grid = build_grid(1.5, 1.0, D4, 200)
    problem = assemble(grid, lambda x: 3.0 / (4.0 * x**2) + np.log(x))
    return problem, solve(problem, 3)


@pytest.fixture(scope="module")
def l0_states():
    grid = build_grid(0.5, 1.0, D4, 120)
    problem = assemble(grid, lambda x: -1.0 / (4.0 * x**2) + np.log(x))
    return grid, solve(problem, 3)


class TestSolve:

    def test_reference_eigenvalue_l1(self, log_l1):
        _, pairs = log_l1
        assert pairs[0].eigenvalue == pytest.approx(1.3861862, abs=5e-6)

    def test_sorted_ascending(self, log_l1):
        _, pairs = log_l1
        lams = [p.eigenvalue for p in pairs]
        assert lams == sorted(lams)

    def test_pair_contracts(self, log_l1):
        _, pairs = log_l1
        for p in pairs:
            assert p.residual <= 1e-8
            assert np.any(p.coefficients)
            top = np.argmax(np.abs(p.coefficients))
            assert p.coefficients[top] > 0.0

    def test_transposed_system_shares_spectrum(self, log_l1):
        problem, pairs = log_l1
        from sinccol.dense_eig import eig

        w = eig(problem.matrix).eigenvalues
        keep = np.abs(w.imag) <= 1e-8 * np.maximum(1.0, np.abs(w.real))
        direct = np.sort(w.real[keep])[:3]
        assert np.allclose(direct, [p.eigenvalue for p in pairs], rtol=0, atol=1e-8)

    def test_count_validation(self, log_l1):
        problem, _ = log_l1
        with pytest.raises(ValueError):
            solve(problem, 0)
        with pytest.raises(ValueError):
            solve(problem, problem.grid.size + 1)

    @pytest.mark.parametrize("count", [2.5, True])
    def test_non_integer_count_is_refused_before_the_pencil_is_built(self, count, log_l1,
                                                                      monkeypatch):
        import sinccol.collocation as collocation

        def no_build(problem):
            raise AssertionError("the pencil was built")

        monkeypatch.setattr(collocation._Pencil, "of", staticmethod(no_build))
        problem, _ = log_l1
        with pytest.raises(ValueError, match="count must be an integer"):
            solve(problem, count)

    def test_non_positive_lowest_level_is_reported(self):
        # radial oscillator shifted down by 5, l = 1: levels -1, 3, 7
        q = lambda x: 3.0 / (4.0 * x**2) + x**2 - 5.0
        problem = assemble(build_grid(1.5, 1.0, D4, 60), q)
        with pytest.raises(EigenSolveError, match="not positive definite"):
            solve(problem, 3)

    def test_pencil_larger_than_memory_is_refused(self, monkeypatch):
        import sinccol.collocation as collocation

        def refusing(allocate):
            def allocate_small(shape, *args, **kwargs):
                if np.prod(shape) >= 10**6:
                    raise AssertionError("the pencil was allocated")
                return allocate(shape, *args, **kwargs)
            return allocate_small

        # l = 0, M = 2500: the bordered pencil at K = 3751 (3752 rows), which
        # solve factors directly, 113 MB against a pretended 10 MB
        monkeypatch.setattr(collocation, "_physical_memory_bytes", lambda: 10**7)
        problem = flagship_problem(0, M=2500)
        for name in ("zeros", "empty"):
            monkeypatch.setattr(collocation.np, name, refusing(getattr(collocation.np, name)))
        with pytest.raises(ValueError,
                           match=r"pencil at K = 3751 needs 0\.113 GB.* has 0\.01 GB.*reduce M"):
            solve(problem, 5)

    def test_paper_grid_too_large_to_factor_is_solved_on_a_coarse_grid(self, monkeypatch):
        import sinccol.collocation as collocation
        from sinccol import solve_states

        # the fine left matrix would need 1.51 GB against a pretended 1 GB;
        # the 180-node DE pencil is factored instead
        monkeypatch.setattr(collocation, "_physical_memory_bytes", lambda: 10**9)
        pairs = solve(flagship_problem(4, M=2500), 5)
        want = np.array([s.eigenvalue for s in solve_states(4, 5, M=500)])
        got = np.array([p.eigenvalue for p in pairs])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-11

    def test_solve_builds_the_dense_pencil_once(self, monkeypatch):
        import sinccol.collocation as collocation

        calls = []
        build = collocation._Pencil.dense_left

        def counted(pencil):
            calls.append(pencil)
            return build(pencil)

        monkeypatch.setattr(collocation._Pencil, "dense_left", counted)
        pairs = solve(flagship_problem(0, M=25), 5)
        assert len(pairs) == 5
        assert len(calls) == 1

    def test_dense_left_is_freed_before_the_residual_check(self, monkeypatch):
        # the Cholesky factor fills the dense left; once the kernel returns,
        # nothing may hold it while the check builds its FFT buffers
        import weakref

        import sinccol.collocation as collocation
        import sinccol.dense_eig as dense_eig

        lefts, alive = [], []
        build, check = collocation._Pencil.dense_left, dense_eig._relative_residuals

        def tracked(pencil):
            left = build(pencil)
            lefts.append(weakref.ref(left))
            return left

        def checked(*args):
            alive.append([ref() is not None for ref in lefts])
            return check(*args)

        monkeypatch.setattr(collocation._Pencil, "dense_left", tracked)
        monkeypatch.setattr(dense_eig, "_relative_residuals", checked)
        problem = flagship_problem(0, M=100)  # a step above the coarse one: the direct path
        assert len(solve(problem, 5)) == 5
        assert alive == [[False]]

    def test_solve_does_not_import_scipy_fft(self):
        # scipy.fft costs about 0.1 s per interpreter; numpy.fft is loaded anyway
        import sinccol

        src = pathlib.Path(sinccol.__file__).parents[1]
        code = ("import sys, sinccol; sinccol.solve_states(1, 5, M=10); "
                "print('scipy.fft' in sys.modules, 'numpy.fft' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.split() == ["False", "True"]

    def test_import_and_solve_load_no_scipy_integrate_or_optimize(self):
        # each adds 0.15 to 0.18 s to a fresh interpreter's import of sinccol
        import sinccol

        src = pathlib.Path(sinccol.__file__).parents[1]
        code = ("import sys, sinccol; sinccol.solve_states(1, 5, M=10); "
                "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
                "(['scipy', 'integrate'], ['scipy', 'optimize'])))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.strip() == "[]"

    def test_oscillator_l1_matches_closed_form_and_shooting(self):
        # radial oscillator, l = 1: exact levels 4n + 2l + 2 = 4, 8, 12
        q = lambda x: 3.0 / (4.0 * x**2) + x**2
        grid = build_grid(1.5, 1.0, D4, 150)
        pairs = solve(assemble(grid, q), 3)
        got = [p.eigenvalue for p in pairs]
        assert np.allclose(got, [4.0, 8.0, 12.0], atol=1e-6)
        oracle = shooting_eigenvalues(q, 1, 2.0, 14.0, 3, x_end=7.0)
        assert np.allclose(oracle, [4.0, 8.0, 12.0], atol=1e-6)


class TestReconstruct:
    def test_cardinal_property(self, l0_states):
        grid, pairs = l0_states
        pair = pairs[0]
        n = grid.size // 2
        got = reconstruct(grid, pair, float(grid.points[n]))
        assert got == pytest.approx(pair.coefficients[n], abs=1e-12)

    def test_ground_state_nodeless(self, l0_states):
        grid, pairs = l0_states
        xs = np.geomspace(0.05, 10.0, 1000)
        values = reconstruct(grid, pairs[0], xs)
        assert count_sign_changes(values) == 0

    def test_second_excited_state_two_nodes(self, l0_states):
        grid, pairs = l0_states
        xs = np.geomspace(0.05, 10.0, 1000)
        values = reconstruct(grid, pairs[2], xs)
        assert count_sign_changes(values) == 2

    def test_domain_error(self, l0_states):
        grid, pairs = l0_states
        with pytest.raises(ValueError):
            reconstruct(grid, pairs[0], -1.0)

    def test_two_dimensional_abscissae_keep_their_shape(self, l0_states):
        grid, pairs = l0_states
        xs = np.concatenate([np.geomspace(0.05, 10.0, 4), grid.points[:2]])
        got = reconstruct(grid, pairs[0], xs.reshape(2, 3))
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), reconstruct(grid, pairs[0], xs))


def unshifted(problem):
    """The pencil of ``problem`` with sigma = 0: its rest is g, with the
    border and corner of ``_Pencil.of``."""
    from sinccol.collocation import _Pencil

    pencil = _Pencil.of(problem)
    return dataclasses.replace(pencil, sigma=0.0,
                               rest=dataclasses.replace(pencil.rest, d=problem.g))


class TestPencilLeft:
    """The residual contract's product and norm, computed from the pencil's
    Toeplitz, diagonal and border pieces, against the dense left matrix."""

    @pytest.mark.parametrize("M", [1, 2, 25, 100])
    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_product_and_norm_match_the_dense_matrix(self, l, M):
        from scipy.linalg import lapack

        from sinccol.collocation import _Pencil

        problem = flagship_problem(l, M=M)
        pencil = _Pencil.of(problem)
        # the unshifted pencil, and the shifted one that solve factors
        for p in (unshifted(problem), pencil):
            left = p.dense_left()
            n = left.shape[0]
            # l = 0 is bordered with the boundary function
            assert n == problem.grid.size + (l == 0)
            V = np.random.default_rng(l * 1000 + M).standard_normal((n, 5))
            dense = left @ V
            assert np.max(np.abs(p.left_times(V) - dense)) <= 1e-14 * np.max(np.abs(dense))
            assert p.left_norm() == pytest.approx(lapack.dlange("I", left), rel=1e-14, abs=0.0)


    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_form_matches_the_dense_projection_for_smooth_columns(self, l):
        from sinccol.collocation import _Pencil

        pencil = _Pencil.of(flagship_problem(l, M=100))
        left = pencil.dense_left().astype(np.longdouble)
        K = pencil.column.size
        # Gaussian bumps some 10 nodes wide, and at l = 0 a border coefficient
        m = np.arange(K)[:, None]
        X = np.exp(-np.square((m - np.array([0.3, 0.5, 0.7]) * K) / 10.0))
        if l == 0:
            X = np.vstack((X, [0.5, -1.0, 2.0]))
        XL = X.astype(np.longdouble)
        want = np.asarray(XL.T @ (left @ XL), dtype=float)
        got = pencil.left_form(X)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


    @pytest.mark.parametrize("M", [1, 2, 25, 100])
    @pytest.mark.parametrize("l", [0, 1])
    def test_dense_is_bit_identical_to_the_toeplitz_build(self, l, M):
        from scipy.linalg import toeplitz

        from sinccol.collocation import _Pencil

        problem = flagship_problem(l, M=M)
        pencil = _Pencil.of(problem)
        rest, K = pencil.rest, problem.grid.size
        # the build the in-place fill replaced: a K x K toeplitz, copied into
        # a zeroed (K + 1) x (K + 1) array when bordered
        want = toeplitz(pencil.column).T
        if rest.border is not None:
            block, want = want, np.zeros((K + 1, K + 1), order="F")
            want[:K, :K] = block
            want[K, :K] = want[:K, K] = rest.border
            want[K, K] = rest.corner
        diag = np.arange(K)
        want[diag, diag] += rest.d
        got = pencil.dense_left()
        assert got.flags.f_contiguous
        assert got.shape == (K + (l == 0),) * 2
        assert np.array_equal(got, want)


class TestPencilRight:
    """The right matrix's product and norm from diag(u) and, at alpha = 1/2,
    its arrowhead border, against its dense form written out from u and
    omega."""

    @pytest.mark.parametrize("M", [1, 2, 25, 100])
    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_product_and_norm_match_the_dense_matrix(self, l, M):
        from sinccol.collocation import _Pencil

        problem = flagship_problem(l, M=M)
        right = _Pencil.of(problem).R
        dense = dense_right(problem.grid)
        n = dense.shape[0]
        assert n == problem.grid.size + (l == 0)
        V = np.random.default_rng(l * 1000 + M).standard_normal((n, 5))
        want = dense @ V
        tol = 1e-15 * np.max(np.abs(want))
        assert np.max(np.abs(right @ V - want)) <= tol
        # Lanczos applies it to single vectors, and to reversed column views
        assert np.max(np.abs(right @ V[:, 0] - want[:, 0])) <= tol
        assert np.max(np.abs(right @ V[:, ::-1] - want[:, ::-1])) <= tol
        assert right.norm_inf() == pytest.approx(np.abs(dense).sum(1).max(), rel=1e-15, abs=0.0)


class TestPencilShift:
    """The pencil's left matrix is left - sigma diag(u) with
    sigma = max(0, min g/u): the Toeplitz part -d2/a^2 is positive definite
    and diag(g - sigma u) is nonnegative, so sigma lies below the lowest
    level."""

    @pytest.mark.parametrize("K", [39, 551])
    def test_sinc_second_derivative_is_positive_definite(self, K):
        from scipy.linalg import toeplitz

        from sinccol.sinc import _d2_column

        eigenvalues = np.linalg.eigvalsh(toeplitz(-_d2_column(K)))
        assert eigenvalues[0] > 0.0
        assert eigenvalues[-1] <= math.pi**2

    @pytest.mark.parametrize("M", [25, 100, 500])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_shift_lies_below_the_lowest_level(self, l, M):
        from sinccol.collocation import _Pencil

        problem = flagship_problem(l, M=M)
        pencil = _Pencil.of(problem)
        sigma = pencil.sigma
        assert sigma > 0.0
        assert np.all(problem.g - sigma * problem.grid.weight >= 0.0)
        assert sigma <= unshifted(problem).eigh(1).eigenvalues[0]

    @pytest.mark.parametrize("l", [1, 4])
    def test_solve_adds_the_shift_to_the_shifted_pencil(self, l):
        from sinccol.collocation import _Pencil

        problem = flagship_problem(l, M=100)
        pencil = _Pencil.of(problem)
        sigma = pencil.sigma
        left = pencil.dense_left()
        # the unshifted left with its diagonal T + (g - sigma u), added in one step
        plain = unshifted(problem).dense_left()
        diag = np.arange(problem.grid.size)
        plain[diag, diag] = pencil.column[0] + (problem.g - sigma * problem.grid.weight)
        assert np.array_equal(left, plain)
        want = sigma + pencil.eigh(5).eigenvalues
        assert np.array_equal([p.eigenvalue for p in solve(problem, 5)], want)

    def test_bordered_pencil_is_not_shifted(self):
        from sinccol.collocation import _Pencil

        # at alpha = 1/2 the flagship g/u tends to -inf, and the border is
        # no part of the Toeplitz block whatever g is: x^2 + 5 on such a grid
        # (the odd oscillator levels 3, 7, 11, raised by 5) has min g/u > 5
        assert _Pencil.of(flagship_problem(0, M=100)).sigma == 0.0
        problem = assemble(build_grid(0.5, 1.0, D4, 100), lambda x: x**2 + 5.0)
        assert problem.grid.bordered
        assert np.min(problem.g / problem.grid.weight) > 5.0
        assert _Pencil.of(problem).sigma == 0.0
        got = [p.eigenvalue for p in solve(problem, 3)]
        assert np.allclose(got, [8.0, 12.0, 16.0], atol=1e-8)

    def test_shift_cuts_the_lanczos_steps(self, monkeypatch):
        import sinccol.dense_eig as dense_eig

        steps = []
        operator = dense_eig.LinearOperator

        def counted(shape, matvec, dtype):
            return operator(shape, matvec=lambda x: steps.append(1) or matvec(x), dtype=dtype)

        monkeypatch.setattr(dense_eig, "LinearOperator", counted)
        problem = flagship_problem(4, M=100)
        solve(problem, 5)
        shifted, steps[:] = len(steps), []
        unshifted(problem).eigh(5)
        # 47 against 87 operator applications when written
        assert shifted <= 60 < len(steps)


def hydrogen_2d(l, C):
    """The 2-D hydrogen atom's radial term (l^2 - 1/4)/x^2 - 2/x + C, and its
    levels E_n = C - 1/(n + l + 1/2)^2 in closed form."""
    return (lambda x: (l * l - 0.25) / x**2 - 2.0 / x + C,
            lambda count: C - 1.0 / np.square(np.arange(count) + l + 0.5))


class TestHydrogen2D:
    """The 2-D hydrogen atom on build_grid(l + 1/2, 0.2, pi/4, M): at l = 0 the
    same critical coupling as the flagship (f ~ x^(1/2), a bordered pencil),
    and a closed-form spectrum at every l.  C = 5 keeps every level positive."""

    @pytest.mark.parametrize("l, M, count", [(0, 400, 5), (1, 200, 5), (2, 150, 3),
                                             (3, 150, 3), (4, 150, 3)])
    def test_levels_match_the_closed_form(self, l, M, count):
        # l = 0: a direct bordered solve at K = 1401; l = 2: the DE two-grid
        # path.  Worst 4.2e-14 when written; l = 4 at count 5 misses by 1.6e-12
        q, levels = hydrogen_2d(l, 5.0)
        grid = build_grid(l + 0.5, 0.2, D4, M)
        assert grid.bordered == (l == 0)
        got = np.array([p.eigenvalue for p in solve(assemble(grid, q), count)])
        assert np.max(np.abs(got - levels(count))) <= 1e-12

    @pytest.mark.xfail(strict=True, raises=EigenSolveError,
                       reason="the shift of _Pencil.of is clamped at 0 (and is 0 when bordered), "
                              "so levels below 0 leave the left matrix indefinite")
    @pytest.mark.parametrize("l, M", [(0, 400), (1, 200)])
    def test_levels_below_zero_match_the_closed_form(self, l, M):
        q, levels = hydrogen_2d(l, 0.0)
        grid = build_grid(l + 0.5, 0.2, D4, M)
        got = np.array([p.eigenvalue for p in solve(assemble(grid, q), 5)])
        assert np.max(np.abs(got - levels(5))) <= 1e-12


@pytest.fixture(scope="module")
def two_grid_and_direct():
    """solve_states(l, 5, M) for l = 0..4 by the two-grid solve where it
    applies and, with the coarse step at 0, directly, by (M, l); the bordered
    l = 0 pencils are solved directly both times."""
    import sinccol.collocation as collocation
    from sinccol import solve_states

    both = {}
    for M in (150, 200, 500, 1000):
        for l in range(5):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(collocation, "_COARSE_STEP", 0.0)
                direct = solve_states(l, 5, M=M)
            both[M, l] = solve_states(l, 5, M=M), direct
    return both


class TestTwoGrid:
    """solve eigensolves an unbordered pencil on the DE grid and finishes by
    Rayleigh-Ritz on the given pencil, and solves a bordered one directly."""

    @staticmethod
    def counted_pencils(monkeypatch):
        import sinccol.collocation as collocation

        built = []
        build = collocation._Pencil.dense_left

        def counted(pencil):
            built.append(pencil.column.size)
            return build(pencil)

        monkeypatch.setattr(collocation._Pencil, "dense_left", counted)
        return built

    @pytest.mark.parametrize("M", [150, 200, 500, 1000])
    def test_levels_and_states_match_the_direct_solve(self, two_grid_and_direct, M):
        from sinccol import evaluate_radial

        # the levels differed by at most 9.8e-14 when written (l = 4, M = 1000);
        # the direct solve's own lambda_0 at l = 4 moves by 6.5e-14 between
        # M = 300 and 1500, where discretization error is far below that
        xs = np.geomspace(1e-4, 60.0, 400)
        for l in range(5):
            got, want = two_grid_and_direct[M, l]
            for g, w in zip(got, want):
                assert g.grid is not w.grid and g.grid.size == w.grid.size
                assert abs(g.eigenvalue / w.eigenvalue - 1.0) <= 2e-13
                R = evaluate_radial(w, xs)
                assert np.max(np.abs(evaluate_radial(g, xs) - R)) <= 1e-12 * np.max(np.abs(R))

    def test_only_the_de_pencil_is_built(self, monkeypatch):
        # l = 4, M = 300: a = 0.060
        problem = flagship_problem(4, M=300)
        built = self.counted_pencils(monkeypatch)
        solve(problem, 5)
        assert built == [de_size(problem.grid)]

    def test_bordered_pencil_is_solved_directly_on_the_cut_window(self, monkeypatch):
        from sinccol import solve_states

        from oracles import read_oracle_levels

        # l = 0, M = 1500: a = 0.081, so the bordered pencil is solved on the
        # K = 1003 window from z = -21.1 (of the window's 2243 nodes), and that
        # dense pencil is the only one built; 1.3e-14 off the oracle when written
        solved = solved_problems(monkeypatch)
        built = self.counted_pencils(monkeypatch)
        got = solve_states(0, 5, M=1500)
        problem, = solved
        assert problem.grid.bordered and problem.grid.size < got[0].grid.size
        assert built == [problem.grid.size]
        levels = read_oracle_levels()
        for n, g in enumerate(got):
            assert abs(g.eigenvalue / levels[0, n] - 1.0) <= 2e-13

    def test_a_grid_that_ends_inside_the_decay_is_solved_directly(self, monkeypatch):
        # l = 4, M = 100: a = 0.1047; the grid ends 6.5 decades of
        # WKB decay past n = 4's outer turning point, short of _DECAYED's 12,
        # so the hold test sends it to the direct solve with no coarse pencil
        problem = flagship_problem(4, M=100)
        built = self.counted_pencils(monkeypatch)
        solve(problem, 5)
        assert built == [problem.grid.size]

    def test_a_step_above_the_coarse_step_forms_no_coarse_grid(self, monkeypatch):
        import sinccol.collocation as collocation

        def no_de_grid(*args):
            raise AssertionError("DE grid formed")

        # l = 4, M = 25: a = 0.209 > _COARSE_STEP
        problem = flagship_problem(4, M=25)
        monkeypatch.setattr(collocation, "_de_grid", no_de_grid)
        built = self.counted_pencils(monkeypatch)
        solve(problem, 1)
        assert built == [problem.grid.size]

    @pytest.mark.parametrize("lo, hi, count", [(4, 5, 1), (500, 508, 4)])
    def test_a_coarse_grid_too_small_for_the_count_is_solved_directly(self, lo, hi, count,
                                                                      monkeypatch):
        # a = 0.060; x = 1.06..1.11 and x = 30.9..31.4 each hold one DE node,
        # too few for a window of decay inside them, so the hold test refuses
        grid = build_grid(4.5, 1.0, D4, 300).window(lo, hi)
        assert de_size(grid) < count + 2
        problem = assemble(grid, lambda x: 79.0 / (4.0 * x**2) + np.log(x))
        built = self.counted_pencils(monkeypatch)
        assert len(solve(problem, count)) == count
        assert built == [grid.size]

    def test_a_window_without_de_nodes_is_solved_directly(self, monkeypatch):
        from sinccol.collocation import _DE_STEP
        from sinccol.sinc import _de_grid

        # a = 0.060; x = 32.2..32.8 lies between the DE nodes
        # t = 4.14 and 4.20
        grid = build_grid(4.5, 1.0, D4, 300).window(520, 530)
        with pytest.raises(ValueError, match="no node"):
            _de_grid(grid, _DE_STEP)
        problem = assemble(grid, lambda x: 79.0 / (4.0 * x**2) + np.log(x))
        built = self.counted_pencils(monkeypatch)
        assert len(solve(problem, 4)) == 4
        assert built == [grid.size]

    @pytest.mark.parametrize("fault", ["underflow", "potential"])
    def test_a_de_grid_without_a_finite_pencil_is_solved_directly(self, fault, monkeypatch):
        import sinccol.collocation as collocation
        import sinccol.sinc as sinc
        from sinccol.coulomb import log_coulomb_potential

        # l = 4, M = 300: a = 0.060; the first DE node pretends to
        # underflow to x = 0, or the potential is infinite on one DE node only
        problem = flagship_problem(4, M=300)
        if fault == "underflow":
            de_map = sinc._de_map
            monkeypatch.setattr(sinc, "_de_map", lambda t: (np.where(t == t[0], 0.0, de_map(t)[0]),
                                                            *de_map(t)[1:]))
        else:
            bad = sinc._de_grid(problem.grid, collocation._DE_STEP).points[40]
            q = log_coulomb_potential(4)
            problem = assemble(problem.grid, lambda x: np.where(x == bad, np.inf, q(x)))
        with monkeypatch.context() as patch:
            patch.setattr(collocation, "_COARSE_STEP", 0.0)
            want = solve(problem, 5)
        built = self.counted_pencils(monkeypatch)
        got = solve(problem, 5)
        assert built == [problem.grid.size]
        for g, w in zip(got, want):
            assert g.eigenvalue == w.eigenvalue
            assert np.array_equal(g.coefficients, w.coefficients)

    def test_states_truncated_by_the_grid_end_are_solved_directly(self, monkeypatch):
        # l = 1, M = 500: a = 0.081; the paper's grid ends before
        # states 14..19 decay, so the hold test builds no coarse pencil
        problem = flagship_problem(1, M=500)
        built = self.counted_pencils(monkeypatch)
        pairs = solve(problem, 20)
        assert built == [problem.grid.size]
        assert all(p.residual <= 1e-8 for p in pairs)

    @pytest.mark.parametrize("noise", [1e-3, 1e-10], ids=["contract", "roundoff"])
    def test_ritz_pairs_off_the_fine_pencil_are_solved_directly(self, noise, monkeypatch):
        import sinccol.collocation as collocation

        # a lifted basis off by 1e-3 misses the residual contract, one off by
        # 1e-10 meets it but not the roundoff level the Ritz pairs must reach
        problem = flagship_problem(4, M=300)
        with monkeypatch.context() as patch:
            patch.setattr(collocation, "_COARSE_STEP", 0.0)
            want = solve(problem, 5)
        lift = collocation._sinc_series
        rng = np.random.default_rng(4)

        def noisy(*args):
            exact = lift(*args)
            peaks = np.max(np.abs(exact), axis=-1, keepdims=True)
            return exact + noise * peaks * rng.standard_normal(exact.shape)

        monkeypatch.setattr(collocation, "_sinc_series", noisy)
        built = self.counted_pencils(monkeypatch)
        got = solve(problem, 5)
        assert built == [de_size(problem.grid), problem.grid.size]
        for g, w in zip(got, want):
            assert g.eigenvalue == w.eigenvalue
            assert np.array_equal(g.coefficients, w.coefficients)

    def test_a_dependent_lifted_basis_is_solved_directly(self, monkeypatch):
        import sinccol.collocation as collocation

        # every lifted column the ground state's: _Pencil.ritz refuses the
        # basis as linearly dependent, and the pencil is solved directly
        problem = flagship_problem(4, M=300)
        with monkeypatch.context() as patch:
            patch.setattr(collocation, "_COARSE_STEP", 0.0)
            want = solve(problem, 5)
        lift = collocation._sinc_series
        monkeypatch.setattr(collocation, "_sinc_series", lambda values, *args: np.repeat(
            lift(values, *args)[:1], values.shape[0], axis=0))
        built = self.counted_pencils(monkeypatch)
        got = solve(problem, 5)
        assert built == [de_size(problem.grid), problem.grid.size]
        for g, w in zip(got, want):
            assert g.eigenvalue == w.eigenvalue
            assert np.array_equal(g.coefficients, w.coefficients)

    def test_no_interpolate_call(self, monkeypatch):
        import sinccol.collocation as collocation
        import sinccol.sinc

        def no_interpolate(*args):
            raise AssertionError("interpolate called")

        monkeypatch.setattr(collocation, "interpolate", no_interpolate)
        monkeypatch.setattr(sinccol.sinc, "interpolate", no_interpolate)
        problem = flagship_problem(4, M=300)
        built = self.counted_pencils(monkeypatch)
        assert len(solve(problem, 5)) == 5
        assert built == [de_size(problem.grid)]

    def test_residual_is_that_of_the_fine_pencil(self, monkeypatch):
        import sinccol.collocation as collocation

        ritz = []
        project = collocation._Pencil.ritz

        def recorded(pencil, X):
            ritz.append((X.shape[0], project(pencil, X)))
            return ritz[-1][1]

        monkeypatch.setattr(collocation._Pencil, "ritz", recorded)
        problem = flagship_problem(4, M=300)
        pairs = solve(problem, 5)
        (rows, decomp), = ritz
        assert rows == problem.grid.size
        assert [p.residual for p in pairs] == list(decomp.residuals)
        assert all(0.0 < p.residual <= collocation._RITZ_RESIDUAL for p in pairs)

    def test_the_ritz_gate_alone_certifies_a_forced_coarse_basis(self, monkeypatch):
        import sinccol.collocation as collocation

        def peak_scaled(V):
            # direct vectors are left-normalized and Ritz vectors R-normalized
            return V / V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]

        # every DE basis the gate accepts with the hold test switched off gives
        # the direct pairs: 8 accepted when written, 3.0e-13 in the levels and
        # 3.8e-13 of the peak in the vectors at most, among them l = 3,
        # M = 200, count 5, whose DE vectors end at 2.0e-12 of their peak
        monkeypatch.setattr(collocation, "_holds", lambda *args: True)
        accepted, refused = [], []
        for l in range(1, 5):
            for M in (150, 200):
                for count in (1, 5):
                    problem = flagship_problem(l, M=M)
                    pencil = collocation._Pencil.of(problem)
                    ritz = collocation._two_grid(problem, pencil, count)
                    if ritz is None:
                        refused.append((l, M, count))
                        continue
                    accepted.append((l, M, count))
                    direct = pencil.eigh(count)
                    assert np.max(np.abs(ritz.eigenvalues / direct.eigenvalues - 1.0)) <= 1e-12
                    assert np.max(np.abs(peak_scaled(ritz.eigenvectors)
                                         - peak_scaled(direct.eigenvectors))) <= 1e-12
        assert (3, 200, 5) in accepted and refused
        assert not de_vectors_decayed(flagship_problem(3, M=200), 5)


@pytest.fixture(scope="module")
def step_0105_levels():
    """solve_states(l, 10, beta=0.5, M) for l = 1..4 with M = 450/(l + 1/2):
    a = 0.105, solved directly (the coarse step at 0), on windows of grids
    that reach x = 94 (N = 2 alpha M), which no count-10 state there
    reaches; by l.  Its levels are independent of the two-grid solve and of
    the fine step, and, with a pencil of entries near 1/a^2 = 91, hold less
    roundoff than a direct solve at a = 0.021 (M = 2500), which is 2.4e-13
    off them."""
    import sinccol.collocation as collocation
    from sinccol import solve_states

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collocation, "_COARSE_STEP", 0.0)
        return {l: solve_states(l, 10, beta=0.5, M=round(450 / (l + 0.5))) for l in range(1, 5)}


class TestDEBasis:
    """The coarse basis of an unbordered pencil: the pencil of the same
    potential on the double-exponential grid t = m _DE_STEP."""

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_de_pencil_alone_gives_the_oscillator_levels(self, l):
        from sinccol.collocation import _DE_STEP, _Pencil
        from sinccol.sinc import _de_grid

        # -f'' + ((4l^2 - 1)/(4x^2) + x^2) f = lambda f: lambda = 4n + 2l + 2,
        # on the DE nodes inside the x-range of the paper's grid at M = 500
        q = lambda x: (4 * l * l - 1) / (4.0 * x**2) + x**2
        grid = _de_grid(build_grid(l + 0.5, 1.0, D4, 500), _DE_STEP)
        pencil = _Pencil.of(assemble(grid, q))
        levels = pencil.sigma + pencil.eigh(5).eigenvalues
        exact = 4.0 * np.arange(5) + 2 * l + 2
        # K = 154, and 9.3e-15 at most when written
        assert grid.size < 200
        assert np.max(np.abs(levels / exact - 1.0)) <= 1e-13

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_levels_and_states_match_a_direct_solve(self, l, step_0105_levels, monkeypatch):
        from sinccol import evaluate_radial, solve_states

        # 1.8e-14 in the levels and 5.5e-13 of the peak in R at most when
        # written; every case takes the two-grid path but count 10 at
        # M = 500, l = 1, 2, whose states the grid's right end truncates, and
        # which the hold test sends to the direct solve alone
        xs = np.geomspace(1e-3, 40.0, 300)
        built = TestTwoGrid.counted_pencils(monkeypatch)
        for M in (500, 1000, 2500):
            for count in (1, 5, 10):
                built.clear()
                got = solve_states(l, count, M=M)
                K_de = de_size(got[0].grid)
                if M == 500 and count == 10 and l <= 2:
                    assert built == [got[0].grid.size]
                    continue
                assert built == [K_de] and K_de < 200
                for g, w in zip(got, step_0105_levels[l]):
                    assert abs(g.eigenvalue / w.eigenvalue - 1.0) <= 3e-14
                    R = evaluate_radial(w, xs)
                    assert np.max(np.abs(evaluate_radial(g, xs) - R)) <= 1e-12 * np.max(np.abs(R))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_states_the_grid_end_truncates_are_solved_directly(self, l, monkeypatch):
        import sinccol.coulomb as coulomb
        from sinccol import solve_states

        # count 20 at M = 500: the window's right end cuts the upper states
        # inside their decay, so the hold test sends each window's pencil
        # to the direct solve, and no DE pencil is built
        solved = []
        real_solve = coulomb.solve
        monkeypatch.setattr(coulomb, "solve", lambda problem, count, **kw: solved.append(
            problem.grid) or real_solve(problem, count, **kw))
        built = TestTwoGrid.counted_pencils(monkeypatch)
        solve_states(l, 20, M=500)
        assert built == [grid.size for grid in solved] and len(built) == 1

    def test_the_lift_forms_no_fine_by_coarse_matrix(self):
        import tracemalloc

        import sinccol.collocation as collocation
        from sinccol import solve_states
        from sinccol.coulomb import log_coulomb_potential

        # l = 4, M = 2500: K = 3962 fine nodes and 132 DE nodes, so a dense
        # lift would take 4.2 MB; the whole two-grid solve peaked at 1.7 MB
        grid = solve_states(4, 5, M=2500)[0].grid
        problem = assemble(grid, log_coulomb_potential(4))
        pencil = collocation._Pencil.of(problem)
        K_de = de_size(grid)
        tracemalloc.start()
        try:
            decomp = collocation._two_grid(problem, pencil, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decomp is not None
        assert peak < 8 * grid.size * K_de


@contextlib.contextmanager
def deadline(seconds):
    """A TimeoutError in the block after ``seconds``, by SIGALRM."""
    def expired(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def solved_problems(monkeypatch):
    """The problems ``coulomb`` hands to ``solve``, in order, as it solves them."""
    import sinccol.coulomb as coulomb

    solved = []
    real_solve = coulomb.solve
    monkeypatch.setattr(coulomb, "solve", lambda problem, count, **kw: solved.append(problem)
                        or real_solve(problem, count, **kw))
    return solved


class TestHoldTest:
    """An unbordered pencil on a step a <= _COARSE_STEP takes the DE two-grid
    path when ``_holds`` finds its grid's ends 12 decades of WKB decay past
    the requested states, and is solved directly, with no coarse pencil,
    otherwise."""

    @pytest.mark.parametrize("l, M", [(2, 100), (2, 150), (3, 100), (4, 100)])
    def test_a_held_window_at_stride_1_takes_the_de_path(self, l, M, monkeypatch):
        import sinccol.collocation as collocation
        from sinccol import evaluate_radial, solve_states

        from oracles import levels_below

        # the converge --n 0 solves of a = 0.105..0.140 that the stride rule
        # sent to the direct solve; 5.8e-15 in the level, 2.3e-14 of the peak
        # in R and Ritz residuals of 5.3e-15 at most when written
        solved = solved_problems(monkeypatch)
        built = TestTwoGrid.counted_pencils(monkeypatch)
        got, = solve_states(l, 1, M=M)
        problem, = solved
        assert int(collocation._COARSE_STEP / problem.grid.a) == 1
        assert built == [de_size(problem.grid)]
        assert solve(problem, 1)[0].residual <= 1e-14
        with monkeypatch.context() as patch:
            patch.setattr(collocation, "_COARSE_STEP", 0.0)
            want, = solve_states(l, 1, M=M)
            direct = solve(problem, 2)
        assert abs(got.eigenvalue / want.eigenvalue - 1.0) <= 2e-13
        xs = np.geomspace(1e-4, 60.0, 400)
        R = evaluate_radial(want, xs)
        assert np.max(np.abs(evaluate_radial(got, xs) - R)) <= 1e-12 * np.max(np.abs(R))
        # no level below the Ritz one was skipped: one level below the midpoint
        # to the next, by the inertia of left - tau R
        tau = 0.5 * (got.eigenvalue + direct[1].eigenvalue)
        assert levels_below(problem.g, problem.grid.weight, problem.grid.a, tau) == 1

    @pytest.mark.parametrize("l, count, M", [(2, 5, 200), (3, 5, 150), (3, 5, 200), (4, 5, 150)])
    def test_states_the_grid_end_cuts_build_one_pencil(self, l, count, M, monkeypatch):
        from sinccol import solve_states

        # a < 0.1; the paper's grid ends 8.7 to 11.5 decades of WKB decay past
        # n = 4's outer turning point, where the DE solve used to be discarded
        solved = solved_problems(monkeypatch)
        built = TestTwoGrid.counted_pencils(monkeypatch)
        solve_states(l, count, M=M)
        assert built == [problem.grid.size for problem in solved] and len(built) == 1

    def test_the_hold_test_sums_the_decay_to_each_end(self):
        import sinccol.collocation as collocation
        from sinccol.coulomb import _WINDOW_DECAY
        from sinccol.sinc import _de_grid

        def decay_sums(problem, count):
            # the hold test as first written: the decay from the outermost
            # turning points summed to each end of the grid, without a window
            grid = problem.grid
            q, weights = problem.g / grid.weight, grid.a * np.sqrt(grid.weight)
            lam = collocation._level_estimate(q, weights, count - 1, steps=8)
            kappa = np.sqrt(np.maximum(q - lam, 0.0)) * weights
            allowed = (q <= lam).nonzero()[0]
            ends = min(kappa[:allowed[0]].sum(), kappa[allowed[-1]:].sum())
            return ends >= -math.log(collocation._DECAYED)

        # the DE grids of the paper's grids and of their first windows, which
        # coulomb forms from the level estimate; 142 of the 320 held when
        # written, the closest 0.35 from the 12 decades' 27.6
        held = []
        for l in range(1, 5):
            for M in (25, 50, 100, 150, 200, 300, 500, 1000, 1500, 2500):
                problem = flagship_problem(l, M=M)
                grid = problem.grid
                langer = np.square(l / grid.points) + np.log(grid.points)
                weights = grid.a / grid.phi1
                for count in (1, 5, 10, 20):
                    level = collocation._level_estimate(langer, weights, count - 1)
                    lo, hi, _ = collocation._window_ends(langer, weights, level, _WINDOW_DECAY)
                    for fine in (grid, grid.window(lo - grid.M, hi - grid.M)):
                        de = assemble(_de_grid(fine, collocation._DE_STEP), problem.potential)
                        held.append(collocation._holds(de, count))
                        assert held[-1] == decay_sums(de, count), (l, M, count, fine.size)
        assert 0 < sum(held) < len(held)

    def test_the_hold_test_agrees_with_the_decay_check(self, monkeypatch):
        import sinccol.collocation as collocation
        from sinccol import solve_states
        from sinccol.sinc import _de_grid

        # over the converge and paper grids: a held window's DE vectors decay
        # to _DECAYED of their peak at both ends, and every window the stride
        # rule sent to the two-grid path, and whose DE basis decayed so and
        # passed the Ritz gate there, still takes it
        solved = solved_problems(monkeypatch)
        built = TestTwoGrid.counted_pencils(monkeypatch)
        held_by = collocation._holds
        taken = 0
        for l in range(1, 5):
            for M in (25, 50, 100, 150, 200, 300, 500, 1000):
                for count in (1, 5):
                    solved.clear()
                    built.clear()
                    solve_states(l, count, M=M)
                    problem, grid = solved[-1], solved[-1].grid
                    if grid.a > collocation._COARSE_STEP:
                        continue
                    de = _de_grid(grid, collocation._DE_STEP)
                    held = held_by(assemble(de, problem.potential), count)
                    assert built[-1:] == [de.size if held else grid.size]
                    with monkeypatch.context() as patch:
                        patch.setattr(collocation, "_holds", lambda *args: True)
                        two_grid = collocation._two_grid(problem, collocation._Pencil.of(problem),
                                                         count)
                    if not held and two_grid is None:
                        continue
                    decayed = de_vectors_decayed(problem, count)
                    if held:
                        assert de.size >= count + 2, (l, M, count)
                        assert decayed, (l, M, count)
                    if int(collocation._COARSE_STEP / grid.a) > 1 and two_grid is not None \
                            and decayed:
                        assert held, (l, M, count)
                        taken += 1
        # 28 such windows when written
        assert taken >= 20

    def test_a_held_window_the_de_step_cannot_resolve_is_solved_directly(self, monkeypatch):
        import sinccol.collocation as collocation
        import sinccol.coulomb as coulomb
        from sinccol import solve_states
        from sinccol.sinc import _de_grid

        class Solved(Exception):
            pass

        def first_window(problem, count, **kw):
            raise Solved(problem)

        # l = 4, M = 1000, count 20: the window holds the states (16.4 decades
        # of WKB decay on the right), but the DE step 0.06 does not resolve
        # n = 19, whose DE vector ends at 2.8e-8 of its peak, so the lifted
        # pairs miss the residual contract (1.6e-6 when written) and the
        # window goes to the direct solve after the DE one, as the stride
        # rule did
        monkeypatch.setattr(coulomb, "solve", first_window)
        with pytest.raises(Solved) as solved:
            solve_states(4, 20, M=1000)
        problem, = solved.value.args
        de = _de_grid(problem.grid, collocation._DE_STEP)
        assert collocation._holds(assemble(de, problem.potential), 20)
        built = TestTwoGrid.counted_pencils(monkeypatch)
        assert collocation._two_grid(problem, collocation._Pencil.of(problem), 20) is None
        assert built == [de.size]

    def test_a_level_estimate_beyond_float_spacing_is_infinite(self):
        from sinccol.collocation import _holds, _level_estimate

        # min q = -2^60: lo + 1 rounds to lo, and the bracket used to stay put
        with deadline(10):
            assert _level_estimate(np.array([-2.0**60, 0.0, 1.0]), np.ones(3), 0) == math.inf
            grid = build_grid(1.5, 1.0, D4, 40)
            assert not _holds(assemble(grid, lambda x: 0.0 * x - 2.0**60), 1)

    @pytest.mark.parametrize("c", [-1e10, -1e17, -1e20, -2.0**60])
    def test_a_potential_too_deep_to_bracket_is_refused(self, c):
        # a = 0.128 on the DE path; below c = -1e16 the hold test's level
        # estimate cannot grow its bracket, which used to raise an IndexError
        # (c = -1e17, -1e20) or never return (c = -2^60)
        grid = build_grid(1.5, 1.0, D4, 200)
        with deadline(10), pytest.raises(EigenSolveError, match="not positive definite"):
            solve(assemble(grid, lambda x: 2.0 / x**2 + c), 3)

    def test_the_oscillator_takes_the_de_path_where_its_grid_holds_the_states(self,
                                                                               monkeypatch):
        import sinccol.collocation as collocation

        # -f'' + (15/(4x^2) + x^2) f = lambda f (l = 2): lambda = 4n + 6; a = 0.115.
        # The paper's grid reaches x = 43.7, and a window of it ends
        # at x = 7.6, 7.1 decades of WKB decay past n = 2's outer turning point
        grid = build_grid(2.5, 1.0, D4, 150)
        q = lambda x: 15.0 / (4.0 * x**2) + x**2
        exact = 4.0 * np.arange(3) + 6.0
        assert int(collocation._COARSE_STEP / grid.a) == 1
        built = TestTwoGrid.counted_pencils(monkeypatch)
        levels = [p.eigenvalue for p in solve(assemble(grid, q), 3)]
        assert built == [de_size(grid)]
        # 2.0e-15 at most when written
        assert np.max(np.abs(np.array(levels) / exact - 1.0)) <= 1e-13
        window = grid.window(-grid.M, 60)
        built.clear()
        solve(assemble(window, q), 3)
        assert built == [window.size]


class TestDELift:
    """The lift of the two-grid solve: the DE sinc series at each fine node's
    t_j, by the series ``interpolate`` sums, turned into the fine grid's v."""

    @pytest.mark.parametrize("M", [150, 500])
    def test_matches_the_series_on_random_columns(self, M):
        from sinccol.collocation import _DE_STEP, _de_lift
        from sinccol.sinc import _de_grid, _de_inverse, _de_map

        # against sum_i V[i] sinc(t_j/h - m_i) sqrt(psi'(t_j) phi'(x_j)) term by
        # term; 1.6e-15 of the peak at most when written
        rng = np.random.default_rng(M)
        for l in range(1, 5):
            grid = flagship_problem(l, M=M).grid
            coarse = _de_grid(grid, _DE_STEP)
            V = rng.uniform(-1.0, 1.0, (coarse.size, 3))
            t = _de_inverse(grid.points)
            want = ((np.sinc(t[:, None] / coarse.a - coarse.indices) @ V)
                    * np.sqrt(_de_map(t)[1] * grid.phi1)[:, None])
            X = _de_lift(V, coarse, grid)
            assert np.max(np.abs(X - want)) <= 1e-14 * np.max(np.abs(want))
