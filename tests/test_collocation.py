"""Tests for assembly and solution of the collocation eigenproblem."""

import dataclasses
import math

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

from oracles import count_sign_changes, shooting_eigenvalues

D4 = math.pi / 4


def synthetic_grid(a, M, N):
    """Grid with a chosen step, for structural checks outside the builder."""
    m = np.arange(-M, N + 1)
    ma = m * a
    e2m = np.exp(-2.0 * ma)
    return SincGrid(alpha=1.0, beta=1.0, d=D4, M=M, N=N, a=a,
                    points=np.arcsinh(np.exp(ma)), phi1=np.sqrt(1.0 + e2m), phi2=-e2m)


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
        from sinccol import build_deltas

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
        from sinccol import eig

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

    def test_non_positive_lowest_level_is_reported(self):
        # radial oscillator shifted down by 5, l = 1: levels -1, 3, 7
        q = lambda x: 3.0 / (4.0 * x**2) + x**2 - 5.0
        problem = assemble(build_grid(1.5, 1.0, D4, 60), q)
        with pytest.raises(EigenSolveError, match="not positive definite"):
            solve(problem, 3)

    def test_pencil_larger_than_memory_is_refused(self, monkeypatch):
        import sinccol.collocation as collocation

        def fail_to_allocate(*args, **kwargs):
            raise AssertionError("the pencil was allocated")

        # K = 13751 at l = 4, M = 2500: 1.51 GB against a pretended 1 GB
        monkeypatch.setattr(collocation, "_physical_memory_bytes", lambda: 10**9)
        problem = flagship_problem(4, M=2500)
        monkeypatch.setattr(collocation.np, "zeros", fail_to_allocate)
        with pytest.raises(ValueError, match=r"K = 13751 needs 1\.51 GB.* has 1 GB.*reduce M"):
            solve(problem, 5)

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
