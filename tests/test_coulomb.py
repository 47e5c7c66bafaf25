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

    # True would solve l = 1 (lambda_0 = 1.3861862) and False l = 0
    @pytest.mark.parametrize("entry", [
        lambda l, M: flagship_problem(l, M=M),
        lambda l, M: solve_states(l, 1, M=M),
        lambda l, M: eigen_table([l], 1, M=M),
    ], ids=["flagship_problem", "solve_states", "eigen_table"])
    def test_a_bool_is_not_an_l_or_an_M(self, entry):
        with pytest.raises(ValueError, match="l must be a nonnegative integer, got True"):
            entry(True, 100)
        with pytest.raises(ValueError, match="M must be a positive integer, got True"):
            entry(1, True)


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
        with pytest.raises(ValueError, match="windows of one grid"):
            state_overlap(states[0], other)

    def test_overlap_spans_two_windows_of_one_grid(self):
        # one state and five states of l = 4 at M = 200 live on different windows
        (single,), five = solve_states(4, 1, M=200), solve_states(4, 5, M=200)
        assert (single.grid.M, single.grid.N) != (five[0].grid.M, five[0].grid.N)
        for first, second in ((single, five[0]), (five[0], single)):
            assert state_overlap(first, second) == pytest.approx(1.0, abs=1e-14)
        for other in five[1:]:
            assert abs(state_overlap(single, other)) <= 1e-13
            assert abs(state_overlap(other, single)) <= 1e-13


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

    def test_below_the_first_node_r_follows_the_class_bound(self):
        # R ~ x^l below the window, which starts at x_0 = 1.4e-4 here; the
        # sinc interpolant's tail would read R(1e-7) = -1.4e-14 of the peak
        s = solve_states(4, 1, M=500)[0]
        x0 = s.grid.points[0]
        peak = np.max(np.abs(evaluate_radial(s, np.geomspace(1e-4, 60.0, 400))))
        below = np.array([1e-7, 1e-5, x0 / 2])
        want = s.coefficients[0] / math.sqrt(x0) * (below / x0) ** 4
        assert np.allclose(evaluate_radial(s, below), want, rtol=1e-14, atol=0.0)
        # R(x_0) is roundoff, -1.7e-16 of the peak, so only its size is fixed
        assert abs(evaluate_radial(s, 1e-7)) <= 1e-20 * peak
        # an abscissa far above x_0 in the same call raises no overflow
        assert evaluate_radial(s, [1e-7, 1e300])[0] == evaluate_radial(s, 1e-7)

    def test_below_the_first_node_r_is_constant_at_l0(self):
        s = solve_states(0, 1, M=500)[0]
        edge = s.coefficients[0] / math.sqrt(s.grid.points[0])
        assert edge > 0.0
        assert evaluate_radial(s, 1e-300) == edge
        assert np.array_equal(evaluate_radial(s, [1e-300, 1e-40]), [edge, edge])
        # the nodal value and the interpolant at x_0 agree to the interpolant's rounding
        assert abs(evaluate_radial(s, s.grid.points[0]) - edge) <= 1e-13 * edge

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
            # eigen_table's direct solves stop at the levels' accuracy: 4e-15
            # at most from solve_states's over l = 0..4, M = 25..1000 when written
            assert np.max(np.abs(table[:, l] / got - 1.0)) <= 1e-14

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
        monkeypatch.setattr(coulomb, "solve", lambda *a, **kw: solves.append(a)
                            or real_solve(*a, **kw))
        # lambda_0: its window is too short for the fifth state
        monkeypatch.setattr(coulomb, "_level_estimate", lambda langer, weights, n: 2.3963)
        states = solve_states(4, 5, M=500)
        assert len(solves) == 2
        assert solves[0][0].grid.size < solves[1][0].grid.size
        want = np.array([p.eigenvalue for p in paper_pairs[4][:5]])
        got = np.array([s.eigenvalue for s in states])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    def test_a_top_level_past_its_estimate_is_solved_again_on_the_hull(self, monkeypatch):
        import sinccol.coulomb as coulomb
        from sinccol import solve
        from sinccol.collocation import _window_ends

        # the one natural second pass over l = 0..4, M = 25..1000 and counts
        # 1, 5, 10, 20 when written: the 20th level's window at M = 100 reaches
        # one node left of the estimate's
        solves = []
        real_solve = coulomb.solve
        monkeypatch.setattr(coulomb, "solve", lambda problem, count, **kw: solves.append(
            (problem.grid, real_solve(problem, count, **kw))) or solves[-1][1])
        pairs = coulomb._windowed_pairs(4, 20, 1.0, D4, 100, vectors=False)[1]
        assert len(solves) == 2
        grid = flagship_problem(4, M=100).grid
        langer = np.square(4 / grid.points) + np.log(grid.points)
        held = _window_ends(langer, grid.a / grid.phi1, solves[0][1][-1].eigenvalue,
                            coulomb._WINDOW_DECAY)
        first, second = (solved.indices[[0, -1]] + grid.M for solved, _ in solves)
        assert held[0] < first[0]
        assert list(second) == [min(first[0], held[0]), max(first[1], held[1])]
        monkeypatch.undo()
        want = np.array([p.eigenvalue for p in solve(flagship_problem(4, M=100), 20)])
        got = np.array([p.eigenvalue for p in pairs])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    def test_the_level_estimate_keeps_the_window_ends_of_a_unit_walk(self):
        import sinccol.coulomb as coulomb
        from sinccol.collocation import _window_ends

        def unit_walk(langer, weights, n):
            # the bracket grown by a constant width of 1 before 30 bisections:
            # at l = 0, from min ln x = -M a, 71-74 phase sums at M = 500 and
            # 158-160 at M = 2500, where doubling widths take 7 and 8
            phase = lambda lam: np.sqrt(np.maximum(lam - langer, 0.0)) @ weights
            lo = float(np.min(langer))
            hi = lo + 1.0
            while phase(hi) < math.pi * (n + 0.5):
                lo, hi = hi, hi + 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if phase(mid) < math.pi * (n + 0.5) else (lo, mid)
            return hi

        for l in range(5):
            for M in (100, 200, 500, 2500):
                grid = flagship_problem(l, M=M).grid
                langer = np.square(l / grid.points) + np.log(grid.points)
                weights = grid.a / grid.phi1
                for count in (1, 5, 20):
                    got, want = (_window_ends(langer, weights, estimate(langer, weights, count - 1),
                                              coulomb._WINDOW_DECAY)
                                 for estimate in (coulomb._level_estimate, unit_walk))
                    assert got[:2] == want[:2], (l, M, count)

    def test_grid_window_keeps_the_logical_indices(self):
        grid = build_grid(1.5, 1.0, D4, 20)
        window = grid.window(-5, 12)
        assert (window.M, window.N, window.size) == (5, 12, 18)
        assert np.array_equal(window.indices, np.arange(-5, 13))
        assert np.array_equal(window.points, grid.points[15:33])
        e2m = np.exp(-2.0 * window.indices * grid.a)
        assert np.array_equal(window.dr, e2m / (1.0 + e2m))
        whole = grid.window(-grid.M, grid.N)
        assert (whole.M, whole.N) == (grid.M, grid.N)
        with pytest.raises(ValueError, match="not inside"):
            grid.window(-21, 0)
        with pytest.raises(ValueError, match="not inside"):
            grid.window(5, 4)


class TestBorderCut:
    """The bordered l = 0 pencil is solved from z = -21.1 on, where its sinc
    part has decayed by 17 decades, and its states are returned on the whole
    window, the border alone holding the nodes left of the cut."""

    @staticmethod
    def solved_sizes(monkeypatch):
        import sinccol.coulomb as coulomb

        sizes = []
        real_solve = coulomb.solve
        monkeypatch.setattr(coulomb, "solve", lambda problem, count, **kw: sizes.append(
            problem.grid.size) or real_solve(problem, count, **kw))
        return sizes

    @pytest.mark.parametrize("M, count", [(300, 3), (500, 5), (1000, 5), (1500, 5)])
    def test_cut_matches_the_uncut_solve(self, monkeypatch, M, count):
        import sinccol.coulomb as coulomb

        with monkeypatch.context() as patch:
            patch.setattr(coulomb, "_border_cut", lambda window, count, tail: 0)
            want = solve_states(0, count, M=M)
        sizes = self.solved_sizes(monkeypatch)
        got = solve_states(0, count, M=M)
        # differences when written: 1.1e-14 in the levels, 4.4e-14 of the
        # peak in the coefficients and 2.2e-14 in R
        xs = np.geomspace(1e-4, 60.0, 400)
        for g, w in zip(got, want):
            grid = g.grid
            assert grid.size == w.grid.size and sizes[-1] < grid.size
            assert abs(g.eigenvalue / w.eigenvalue - 1.0) <= 1e-13
            peak = np.max(np.abs(w.coefficients))
            assert np.max(np.abs(g.coefficients - w.coefficients)) <= 1e-12 * peak
            R = evaluate_radial(w, xs)
            assert np.max(np.abs(evaluate_radial(g, xs) - R)) <= 1e-12 * np.max(np.abs(R))

    def test_paper_table_pencil_is_cut(self, monkeypatch):
        sizes = self.solved_sizes(monkeypatch)
        states = solve_states(0, 5, M=500)
        assert states[0].grid.size == 751
        # z = -21.1 to 35.1 at a = 0.14: K = 401 when written
        assert len(sizes) == 1 and sizes[0] <= 420

    def test_nodes_left_of_the_cut_hold_the_border(self, monkeypatch):
        import sinccol.coulomb as coulomb
        from sinccol import solve

        solved = []
        real_solve = coulomb.solve
        monkeypatch.setattr(coulomb, "solve", lambda problem, count, **kw: solved.append(
            real_solve(problem, count, **kw)) or solved[-1])
        states = coulomb._windowed_pairs(0, 5, 1.0, D4, 500)[1]
        grid = flagship_problem(0, M=500).grid
        cut = grid.size - solved[0][0].coefficients.size
        for state, pair in zip(states, solved[0]):
            assert np.array_equal(state.coefficients[cut:], pair.coefficients)
            assert np.array_equal(state.coefficients[:cut],
                                  pair.border * grid.dr[:cut] / np.sqrt(grid.phi1[:cut]))
        assert all(p.border == 0.0 for p in solve(flagship_problem(1, M=50), 2))

    @pytest.mark.parametrize("M, count", [(200, 5), (500, 20), (60, 1)])
    def test_unresolved_states_are_solved_on_the_whole_window(self, monkeypatch, M, count):
        # the grid's right end truncates the first two (amplitude 4.8e-3 and
        # 0.17 of the peak there), and the step a = 0.41 of the third leaves
        # its level 2.8e-7 off: the cut would move their coefficients by
        # 3.3e-12, 2.3e-11 and 5.4e-12 of the peak
        sizes = self.solved_sizes(monkeypatch)
        states = solve_states(0, count, M=M)
        assert sizes == [states[0].grid.size]

    def test_cut_keeps_count_plus_one_sinc_nodes(self):
        import sinccol.coulomb as coulomb

        window = flagship_problem(0, M=500).grid
        assert coulomb._border_cut(window, 5, math.inf) == window.size - 401
        for count in (500, 749, 750):
            cut = coulomb._border_cut(window, count, math.inf)
            assert cut == max(0, min(window.size - 401, window.size - count - 1))
        assert coulomb._border_cut(window, 5, 0.0) == 0


def recorded_eigsh(monkeypatch):
    """Wrap the Lanczos call of ``dense_eig.lowest``: each call appends the
    operator's size n, its keyword arguments and its operator applications."""
    from scipy.sparse.linalg import LinearOperator

    import sinccol.dense_eig as dense_eig

    calls = []
    real = dense_eig.eigsh

    def recorded(operator, **kwargs):
        call = {"n": operator.shape[0], "kwargs": kwargs, "applications": 0}
        calls.append(call)

        def applied(y):
            call["applications"] += 1
            return operator.matvec(y)

        return real(LinearOperator(operator.shape, matvec=applied, dtype=float), **kwargs)

    monkeypatch.setattr(dense_eig, "eigsh", recorded)
    return calls


class TestLevelsOnly:
    """eigen_table wants levels alone, so its direct solves stop Lanczos at
    the levels' accuracy; solve_states and every two-grid coarse solve
    keep ARPACK's full accuracy (tol = 0) and default subspace."""

    @staticmethod
    def built_pencils(monkeypatch):
        import sinccol.collocation as collocation

        built = []
        build = collocation._Pencil.dense_left
        monkeypatch.setattr(collocation._Pencil, "dense_left",
                            lambda pencil: built.append(pencil.column.size) or build(pencil))
        return built

    @pytest.mark.parametrize("M, counts", [(25, (1, 5)), (50, (1, 5)), (100, (1, 5)),
                                           (200, (1, 5)), (500, (1, 5, 20))])
    def test_levels_match_the_vector_path(self, monkeypatch, M, counts):
        import sinccol.coulomb as coulomb

        built = self.built_pencils(monkeypatch)
        for l in range(5):
            for count in counts:
                built.clear()
                want = np.array([s.eigenvalue for s in solve_states(l, count, M=M)])
                vector_pencils = built[:]
                built.clear()
                got = eigen_table([l], count, M=M)[:, 0]
                # 4e-15 at most when written (l = 0..4, M = 25..1000, counts 1..20)
                assert np.max(np.abs(got / want - 1.0)) <= 1e-14
                assert built == vector_pencils
                pairs = coulomb._windowed_pairs(l, count, 1.0, D4, M, vectors=False)[1]
                assert all(p.residual <= 1e-8 for p in pairs)

    def test_a_non_finite_level_is_reported_on_the_levels_path(self):
        from sinccol.dense_eig import InfiniteLevelError

        with pytest.raises(InfiniteLevelError, match="state n = 150 has no finite level"):
            eigen_table([0], 151, M=100)

    def test_the_vector_path_keeps_the_full_lanczos(self, monkeypatch, capsys):
        from sinccol.cli import main

        calls = recorded_eigsh(monkeypatch)
        for l in range(5):
            solve_states(l, 5, M=100)
        assert main(["wavefunction", "--l", "1", "--n", "4", "--M", "100", "--samples", "3"]) == 0
        assert calls and all(c["kwargs"]["tol"] == 0 and c["kwargs"].get("ncv") is None
                             for c in calls)

    def test_direct_solves_stop_at_the_levels_tolerance(self, monkeypatch):
        from sinccol.dense_eig import _LEVELS_TOL

        calls = recorded_eigsh(monkeypatch)
        eigen_table(range(5), 5, M=100)  # every window is solved directly
        eigen_table([1], 1, M=100)
        assert [c["kwargs"]["tol"] for c in calls] == [_LEVELS_TOL] * 6
        assert [c["kwargs"]["ncv"] for c in calls] == [None] * 5 + [8]

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_two_grid_coarse_solves_keep_full_accuracy(self, monkeypatch, l):
        import sinccol.coulomb as coulomb

        fine = []
        real_solve = coulomb.solve
        monkeypatch.setattr(coulomb, "solve", lambda problem, count, **kw: fine.append(
            problem.grid.size) or real_solve(problem, count, **kw))
        calls = recorded_eigsh(monkeypatch)
        for M in (100, 150, 200):
            eigen_table([l], 1, M=M)
        # converge --n 0 at M = 100..200: each window holds the ground state,
        # so only its DE grid is solved, whose vectors feed the Ritz step
        assert len(calls) == 3 and all(c["n"] < K for c, K in zip(calls, fine))
        assert all(c["kwargs"]["tol"] == 0 and c["kwargs"].get("ncv") is None for c in calls)

    @pytest.mark.parametrize("l, count, parent, applied", [(1, 1, 21, 13), (4, 5, 47, 33)])
    def test_operator_applications(self, monkeypatch, l, count, parent, applied):
        # direct solves at M = 100: with tol = 0 and ARPACK's default subspace
        # of 20 vectors they took 21 and 47 applications
        calls = recorded_eigsh(monkeypatch)
        eigen_table([l], count, M=100)
        (call,) = calls
        assert call["applications"] == applied < parent
        calls.clear()
        solve_states(l, count, M=100)
        assert [c["applications"] for c in calls] == [parent]


class TestOracleLevels:
    """The levels committed in tests/data/oracle_levels.csv, shot by
    ``python tests/oracles.py`` (l = 0..4 with n = 0..4, and l = 0 with
    n = 5..19), against the generator and the solver."""

    def test_generator_reproduces_the_file(self):
        from oracles import ORACLE_RUNS, log_coulomb_levels, read_oracle_levels

        levels = read_oracle_levels()
        assert sorted(levels) == sorted([(0, n) for n in range(20)]
                                        + [(l, n) for l in range(1, 5) for n in range(5)])
        l, _, _, x_end, scan, lam_lo, lam_hi = ORACLE_RUNS[0]
        got = log_coulomb_levels(l, 3, x_end, scan, lam_lo, lam_hi)
        assert np.allclose(got, [levels[0, n] for n in range(3)], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("l", range(5))
    def test_five_states_match_the_oracle(self, l):
        from oracles import read_oracle_levels

        levels = read_oracle_levels()
        got = [s.eigenvalue for s in solve_states(l, 5, M=500)]
        # 1.7e-13 at l = 0, n = 4 and 6.0e-15 or better at l = 1..4 when written
        assert np.allclose(got, [levels[l, n] for n in range(5)], rtol=0.0, atol=1e-12)

    @pytest.mark.xfail(strict=True, reason="the paper's M = 500 grid truncates the states from "
                       "n = 5 at its right end (ROADMAP item 2): 3.5e-10 off at n = 5, 1.4 at n = 19")
    def test_twenty_states_match_the_oracle(self):
        from oracles import read_oracle_levels

        levels = read_oracle_levels()
        got = [s.eigenvalue for s in solve_states(0, 20, M=500)]
        assert np.allclose(got, [levels[0, n] for n in range(20)], rtol=0.0, atol=1e-12)
