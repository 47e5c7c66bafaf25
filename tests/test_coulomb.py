"""Tests for the logarithmic Coulomb problem layer."""

import dataclasses
import math

import numpy as np
import pytest

from sinccol import (
    EULER_GAMMA,
    LEVEL_SHIFT,
    build_grid,
    eigen_table,
    evaluate_radial,
    flagship_problem,
    interpolate,
    log_coulomb_potential,
    normalize,
    solve_states,
    state_overlap,
)

D4 = math.pi / 4


class TestConstants:
    def test_euler_gamma(self):
        # frozen from a 40-digit evaluation: 0.57721566490153286...
        assert EULER_GAMMA == pytest.approx(0.57721566490153286, abs=1e-16)

    def test_level_shift(self):
        assert LEVEL_SHIFT == pytest.approx(EULER_GAMMA + math.log(2.0), abs=1e-16)
        assert LEVEL_SHIFT == pytest.approx(1.27036284546, abs=1e-11)


class TestProblemSetup:
    def test_potential_values(self):
        assert log_coulomb_potential(0)(1.0) == pytest.approx(-0.25, abs=0)
        assert log_coulomb_potential(1)(1.0) == pytest.approx(0.75, abs=0)

    def test_grid_exponent_tied_to_momentum(self):
        for l in (0, 2, 4):
            problem = flagship_problem(l, M=20)
            assert problem.grid.alpha == l + 0.5

    def test_default_grid_shape(self):
        problem = flagship_problem(0, M=500)
        assert problem.grid.N == 250
        assert problem.grid.size == 751

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            flagship_problem(-1, M=20)
        with pytest.raises(ValueError):
            flagship_problem(0, beta=0.4, M=20)
        with pytest.raises(ValueError):
            flagship_problem(0, beta=1.1, M=20)
        with pytest.raises(ValueError):
            flagship_problem(0, d=2.0, M=20)


@pytest.fixture(scope="module")
def states():
    return solve_states(1, 3, M=200)


@pytest.fixture(scope="module")
def pair_and_grid():
    from sinccol import assemble, solve

    grid = build_grid(1.5, 1.0, D4, 150)
    pairs = solve(assemble(grid, log_coulomb_potential(1)), 1)
    return pairs[0], grid


@pytest.fixture(scope="module")
def l4_states():
    return solve_states(4, 3, M=120)


class TestStates:

    def test_reference_ground_state(self, states):
        assert states[0].eigenvalue == pytest.approx(1.3861862, abs=5e-6)

    def test_indices_and_shift(self, states):
        for n, s in enumerate(states):
            assert (s.l, s.n) == (1, n)
            assert s.eigenvalue_shifted - s.eigenvalue == pytest.approx(LEVEL_SHIFT, abs=1e-12)
            assert s.grid.alpha == 1.5

    def test_normalization_residual(self, states):
        for s in states:
            assert s.norm_residual <= 1e-8

    def test_unit_norm_by_quadrature(self, states):
        s = states[0]
        val = s.grid.a * np.sum(np.square(s.coefficients) / (s.grid.points * s.grid.phi1))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self, states):
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(state_overlap(states[i], states[j])) <= 1e-6

    @pytest.mark.parametrize("count", [2.5, True])
    def test_non_integer_count_is_a_value_error(self, count):
        # 2.5 used to reach ARPACK and fail there with a SystemError
        with pytest.raises(ValueError, match="count must be an integer"):
            solve_states(1, count, M=10)

    def test_overlap_requires_shared_grid(self, states):
        other = solve_states(1, 1, M=100)[0]
        with pytest.raises(ValueError):
            state_overlap(states[0], other)


class TestNormalize:
    def test_idempotent(self, pair_and_grid):
        pair, grid = pair_and_grid
        once = normalize(pair, grid, 1, 0)
        again = normalize(dataclasses.replace(pair, coefficients=once.coefficients), grid, 1, 0)
        assert np.allclose(again.coefficients, once.coefficients, rtol=1e-12, atol=0.0)

    def test_scale_invariant(self, pair_and_grid):
        pair, grid = pair_and_grid
        once = normalize(pair, grid, 1, 0)
        doubled = normalize(dataclasses.replace(pair, coefficients=2.0 * pair.coefficients),
                            grid, 1, 0)
        assert np.allclose(doubled.coefficients, once.coefficients, rtol=1e-12, atol=0.0)

    def test_rejects_zero_coefficients(self, pair_and_grid):
        pair, grid = pair_and_grid
        zero = dataclasses.replace(pair, coefficients=np.zeros_like(pair.coefficients))
        with pytest.raises(ValueError):
            normalize(zero, grid, 1, 0)


class TestRadialFunction:
    def test_interpolant_in_the_left_tail_against_mpmath(self):
        # R is 5e-11 to 4e-9 here, so the Cauchy sum cancels to a tiny part
        # of its terms; the reference sums the same coefficients at 40 digits
        import mpmath
        s = solve_states(4, 1, M=100)[0]
        xs = np.linspace(0.01, 0.03, 9)
        with mpmath.workdps(40):
            a = mpmath.mpf(s.grid.a)
            coefficients = [mpmath.mpf(float(c)) for c in s.coefficients]

            def reference(x):
                t = mpmath.log(mpmath.sinh(mpmath.mpf(x))) / a
                return float(mpmath.fsum(c * mpmath.sinc(mpmath.pi * (t - int(m)))
                                         for m, c in zip(s.grid.indices, coefficients)))

            want = np.array([reference(x) for x in xs])
        assert np.all(np.abs(want / np.sqrt(xs)) < 1e-8)
        got = interpolate(s.grid, s.coefficients, xs)
        assert np.max(np.abs(got - want)) <= 3e-17 * np.max(np.abs(s.coefficients))

    def test_nodal_value_over_sqrt_x(self, l4_states):
        s = l4_states[0]
        i = s.grid.M  # logical index m = 0
        x0 = float(s.grid.points[i])
        assert evaluate_radial(s, x0) == pytest.approx(
            s.coefficients[i] / math.sqrt(x0), rel=1e-12)

    def test_ground_state_positive(self, l4_states):
        xs = np.geomspace(0.05, 10.0, 500)
        R = np.atleast_1d(evaluate_radial(l4_states[0], xs))
        assert np.all(R > 0.0)

    def test_centrifugal_suppression_near_origin(self, l4_states):
        s = l4_states[0]
        xs = np.geomspace(0.05, 10.0, 500)
        peak = np.max(np.abs(np.atleast_1d(evaluate_radial(s, xs))))
        assert abs(evaluate_radial(s, 0.1)) <= 1e-3 * peak

    def test_domain_error(self, l4_states):
        with pytest.raises(ValueError):
            evaluate_radial(l4_states[0], 0.0)

    @pytest.mark.parametrize("x", [np.inf, 1e308])
    def test_non_finite_or_overflowing_abscissa_is_an_error(self, l4_states, x):
        # 1e308 is finite, but phi(x)/a overflows
        with pytest.raises(ValueError, match="interpolate requires"):
            evaluate_radial(l4_states[0], x)

    def test_two_dimensional_abscissae_keep_their_shape(self, l4_states):
        s = l4_states[0]
        xs = np.concatenate([np.geomspace(0.05, 10.0, 10), s.grid.points[:2]])
        R = evaluate_radial(s, xs.reshape(3, 4))
        assert R.shape == (3, 4)
        assert np.array_equal(R.ravel(), evaluate_radial(s, xs))

    def test_renormalization_on_finer_grid(self, l4_states):
        # independent check of the unit norm: resample R^2 = f^2/x on a
        # grid with M + 200 and integrate there
        s = l4_states[0]
        fine = build_grid(4.5, 1.0, D4, 120 + 200)
        f_fine = np.atleast_1d(interpolate(s.grid, s.coefficients, fine.points))
        val = fine.a * np.sum(np.square(f_fine) / (fine.points * fine.phi1))
        assert val == pytest.approx(1.0, abs=1e-8)


@pytest.fixture(scope="module")
def paper_pairs():
    """The lowest 20 pairs of flagship_problem + solve at M = 500, l = 0..4."""
    from sinccol import solve

    return {l: solve(flagship_problem(l, M=500), 20) for l in range(5)}


@pytest.fixture(scope="module")
def windowed():
    """solve_states at M = 500 for l = 0..4, by count."""
    return {count: [solve_states(l, count, M=500) for l in range(5)] for count in (5, 20)}


class TestWindow:
    """solve_states and eigen_table solve on a window of the paper's grid."""

    @pytest.mark.parametrize("count", [5, 20])
    def test_eigenvalues_match_the_paper_grid(self, paper_pairs, windowed, count):
        table = eigen_table(range(5), count, M=500)
        for l in range(5):
            want = np.array([p.eigenvalue for p in paper_pairs[l][:count]])
            got = np.array([s.eigenvalue for s in windowed[count][l]])
            assert np.max(np.abs(got / want - 1.0)) <= 1e-13
            assert np.array_equal(table[:, l], got)

    @pytest.mark.parametrize("count", [5, 20])
    def test_window_lies_inside_the_paper_grid(self, windowed, count):
        for l in range(5):
            paper = flagship_problem(l, M=500).grid
            window = windowed[count][l][0].grid
            assert all(s.grid is window for s in windowed[count][l])
            assert (window.a, window.alpha) == (paper.a, paper.alpha)
            assert -paper.M <= -window.M <= window.N <= paper.N
            offset = paper.M - window.M
            assert np.array_equal(window.points, paper.points[offset:offset + window.size])
            if l == 0:  # ln x has no forbidden region near 0
                assert window.M == paper.M

    def test_largest_flagship_window_is_smaller(self, windowed):
        assert windowed[5][4][0].grid.size < 2000

    def test_radial_functions_match_the_paper_grid(self, paper_pairs, windowed):
        # the paper grid's own R moves by up to 2.1e-13 of its peak between
        # one and two BLAS threads, the rounding floor of these eigenvectors;
        # cutting the window at 17 decades adds nothing above it
        xs = np.geomspace(1e-4, 60.0, 400)
        for l in range(5):
            paper = flagship_problem(l, M=500).grid
            for n, state in enumerate(windowed[5][l]):
                want = evaluate_radial(normalize(paper_pairs[l][n], paper, l, n), xs)
                got = evaluate_radial(state, xs)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_a_low_estimate_is_solved_again_on_the_wider_window(self, monkeypatch, paper_pairs):
        import sinccol.coulomb as coulomb

        solves = []
        real_solve = coulomb.solve
        monkeypatch.setattr(coulomb, "solve", lambda *a: solves.append(a) or real_solve(*a))
        # lambda_0: its window is too short for the fifth state
        monkeypatch.setattr(coulomb, "_level_estimate", lambda langer, weights, n: 2.3963)
        states = solve_states(4, 5, M=500)
        assert len(solves) == 2
        assert solves[0][0].grid.size < solves[1][0].grid.size
        want = np.array([p.eigenvalue for p in paper_pairs[4][:5]])
        got = np.array([s.eigenvalue for s in states])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    def test_grid_window_keeps_the_logical_indices(self):
        grid = build_grid(1.5, 1.0, D4, 20)
        window = grid.window(-5, 12)
        assert (window.M, window.N, window.size) == (5, 12, 18)
        assert np.array_equal(window.indices, np.arange(-5, 13))
        assert np.array_equal(window.points, grid.points[15:33])
        assert np.array_equal(window.phi2, -np.exp(-2.0 * window.indices * grid.a))
        whole = grid.window(-grid.M, grid.N)
        assert (whole.M, whole.N) == (grid.M, grid.N)
        with pytest.raises(ValueError, match="not inside"):
            grid.window(-21, 0)
        with pytest.raises(ValueError, match="not inside"):
            grid.window(5, 4)
