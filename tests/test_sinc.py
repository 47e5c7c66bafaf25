"""Unit and property tests for the mapped sinc machinery."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinccol import (
    build_grid,
    interpolate,
    map_forward,
    map_inverse,
    quadrature,
    sinc_basis,
)
from sinccol import sinc
from sinccol.sinc import build_deltas

D4 = math.pi / 4

# frozen with mpmath at 40 digits
LN_1_PLUS_SQRT2 = 0.8813735870195430
PHI_AT_1E8 = -18.420680743952365
TWO_OVER_PI = 0.6366197723675813


class TestSincBasis:
    def test_unit_at_own_node(self):
        assert sinc_basis(0, 1.0, 0.0) == 1.0

    def test_zero_at_other_nodes(self):
        assert sinc_basis(0, 1.0, 1.0) == 0.0
        assert sinc_basis(3, 0.25, 5 * 0.25) == 0.0

    def test_closed_form_value(self):
        # (x - ma)/a = 0.5, so the value is sin(pi/2)/(pi/2) = 2/pi
        assert sinc_basis(2, 0.5, 1.25) == pytest.approx(TWO_OVER_PI, abs=1e-15)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            sinc_basis(0, 0.0, 1.0)

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 0.5])
        out = sinc_basis(0, 1.0, x)
        assert out.shape == (3,)
        assert out[0] == 1.0 and out[1] == 0.0

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.floats(1e-3, 10.0, allow_nan=False))
    def test_cardinal_property(self, m, k, a):
        val = sinc_basis(m, a, k * a)
        if k == m:
            assert val == 1.0
        else:
            assert abs(val) <= 1e-12


class TestMaps:
    def test_forward_at_unit_sinh(self):
        # sinh(ln(1+sqrt(2))) = 1, so the image is 0
        assert map_forward(LN_1_PLUS_SQRT2) == pytest.approx(0.0, abs=1e-14)

    def test_forward_large_argument(self):
        assert map_forward(20.0) == pytest.approx(20.0 - math.log(2.0), abs=1e-12)

    def test_forward_small_argument(self):
        assert map_forward(1e-8) == pytest.approx(PHI_AT_1E8, abs=1e-12)

    def test_forward_domain_error(self):
        with pytest.raises(ValueError):
            map_forward(0.0)
        with pytest.raises(ValueError):
            map_forward(-1.0)
        with pytest.raises(ValueError):
            map_forward(np.array([1.0, -2.0]))

    def test_inverse_at_zero(self):
        assert map_inverse(0.0) == pytest.approx(LN_1_PLUS_SQRT2, abs=1e-14)

    def test_inverse_large_positive(self):
        assert map_inverse(500.0) == pytest.approx(500.0 + math.log(2.0), abs=1e-12)
        assert np.isfinite(map_inverse(700.0))

    def test_inverse_large_negative(self):
        val = map_inverse(-500.0)
        assert val > 0.0 and np.isfinite(val)
        assert val == pytest.approx(math.exp(-500.0), rel=1e-12)
        assert map_inverse(-700.0) > 0.0

    def test_round_trip_dense(self):
        z = np.linspace(-50.0, 50.0, 4001)
        back = map_forward(map_inverse(z))
        assert np.all(np.abs(back - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))

    @given(st.floats(-50.0, 50.0, allow_nan=False))
    def test_round_trip_property(self, z):
        assert abs(map_forward(map_inverse(z)) - z) <= 1e-12 * max(1.0, abs(z))

    @given(st.floats(-200.0, 200.0), st.floats(1e-9, 10.0))
    def test_inverse_strictly_increasing(self, z, dz):
        assert map_inverse(z + dz) > map_inverse(z)


class TestBuildGrid:
    def test_flagship_l0_parameters(self):
        g = build_grid(0.5, 1.0, D4, 500)
        assert g.N == 250
        assert g.a == pytest.approx(math.sqrt(math.pi**2 / 500.0), abs=1e-15)

    def test_equal_exponents(self):
        assert build_grid(0.5, 0.5, D4, 100).N == 100

    def test_high_momentum_parameters(self):
        g = build_grid(4.5, 1.0, D4, 100)
        assert g.N == 450
        assert g.a == pytest.approx(math.sqrt(math.pi**2 / 2.0 / 450.0), abs=1e-15)

    def test_invalid_arguments(self):
        for bad in (dict(alpha=0.0), dict(beta=-1.0), dict(d=0.0),
                    dict(d=math.pi / 2 + 0.01), dict(M=0)):
            kwargs = dict(alpha=1.0, beta=1.0, d=D4, M=32) | bad
            with pytest.raises(ValueError):
                build_grid(**kwargs)

    def test_overflowing_grid_is_a_value_error_not_a_warning(self):
        # e^(-2ma) overflows at m = -M; warnings are errors under pytest
        with pytest.raises(ValueError, match="grid values overflow"):
            build_grid(0.5, 1.0, D4, 100000)

    def test_step_bound_enforced(self):
        # tiny d with tiny alpha*M pushes a past 2*pi*d/ln(2)
        with pytest.raises(ValueError):
            build_grid(0.5, 1.0, 1e-3, 100)

    def test_points_positive_increasing(self):
        g = build_grid(1.5, 1.0, D4, 80)
        assert g.points[0] > 0.0
        assert np.all(np.diff(g.points) > 0.0)

    def test_round_trip_at_sinc_points(self):
        g = build_grid(0.5, 1.0, D4, 200)
        ma = g.indices * g.a
        assert np.all(np.abs(map_forward(g.points) - ma) <= 1e-12 * np.maximum(1.0, np.abs(ma)))

    def test_derivative_identities(self):
        g = build_grid(2.5, 1.0, D4, 120)
        e2m = np.exp(-2.0 * g.indices * g.a)
        assert np.allclose(-g.phi2, e2m, rtol=1e-12, atol=0.0)
        assert np.allclose(g.phi1**2, 1.0 + e2m, rtol=1e-12, atol=0.0)
        # the subtracted form phi1^2 - 1 loses eps/e^(-2ma) relative digits
        # to the representation of phi1, so restrict it to entries where
        # that loss stays below the tolerance
        big = e2m >= 1e-2
        assert np.allclose(g.phi1[big] ** 2 - 1.0, e2m[big], rtol=1e-12, atol=0.0)
        assert np.all(np.isfinite(g.phi1)) and np.all(np.isfinite(g.phi2))

    @given(st.floats(0.2, 5.0), st.floats(0.5, 2.0), st.floats(0.05, math.pi / 2),
           st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_grid_invariants_property(self, alpha, beta, d, M):
        a = math.sqrt(2.0 * math.pi * d / (alpha * M))
        if a > 2.0 * math.pi * d / math.log(2.0):
            with pytest.raises(ValueError):
                build_grid(alpha, beta, d, M)
            return
        g = build_grid(alpha, beta, d, M)
        v = alpha / beta * M
        assert g.N == math.ceil(v) or abs(v - round(v)) <= 1e-9 * max(1.0, v)
        assert g.size == g.M + g.N + 1 == len(g.points)
        assert g.points[0] > 0.0 and np.all(np.diff(g.points) > 0.0)


@pytest.fixture(scope="module")
def deltas():
    return build_deltas(build_grid(1.0, 1.0, D4, 10))


class TestDeltas:

    def test_d0_identity(self, deltas):
        assert np.array_equal(deltas.d0, np.eye(deltas.size))

    def test_d1_structure(self, deltas):
        d1 = deltas.d1
        assert np.all(np.diag(d1) == 0.0)
        assert np.array_equal(d1, -d1.T)
        assert d1[3, 4] == -1.0 and d1[4, 3] == 1.0
        # entry (n, m) = (-1)^(m-n)/(m-n)
        n, m = 2, 7
        assert d1[n, m] == pytest.approx((-1.0) ** (m - n) / (m - n), abs=0)

    def test_d2_structure(self, deltas):
        d2 = deltas.d2
        assert np.all(np.diag(d2) == -math.pi**2 / 3.0)
        assert np.array_equal(d2, d2.T)
        assert d2[1, 3] == -0.5 and d2[3, 1] == -0.5
        n, m = 0, 5
        assert d2[n, m] == pytest.approx(2.0 * (-1.0) ** (m - n + 1) / (m - n) ** 2, abs=0)

    def test_toeplitz_dependence_on_index_difference(self, deltas):
        for mat in (deltas.d1, deltas.d2):
            for off in range(-deltas.size + 1, deltas.size):
                diag = np.diagonal(mat, offset=off)
                assert np.all(diag == diag[0])


@pytest.fixture
def integer_map(monkeypatch):
    """Grid with a = 1/2 under z = x - 100, so that x = 100 + t/2 lands on t exactly."""
    monkeypatch.setattr(sinc, "map_forward", lambda x: np.asarray(x) - 100.0)
    return dataclasses.replace(build_grid(1.0, 1.0, D4, 60), a=0.5)


class TestInterpolate:
    def test_cardinal_at_all_nodes(self):
        g = build_grid(1.0, 1.0, D4, 24)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(g.size)
        at_nodes = interpolate(g, values, g.points)
        assert np.all(np.abs(at_nodes - values) <= 1e-12 * np.max(np.abs(values)))

    def test_zero_values_give_zero(self):
        g = build_grid(1.0, 1.0, D4, 16)
        xs = np.geomspace(1e-3, 30.0, 50)
        assert np.all(interpolate(g, np.zeros(g.size), xs) == 0.0)

    def test_smooth_function_at_interior_point(self):
        g = build_grid(1.0, 1.0, D4, 64)
        values = g.points * np.exp(-g.points)
        got = interpolate(g, values, 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_domain_and_shape_errors(self):
        g = build_grid(1.0, 1.0, D4, 8)
        with pytest.raises(ValueError):
            interpolate(g, np.zeros(g.size), 0.0)
        with pytest.raises(ValueError):
            interpolate(g, np.zeros(g.size), np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            interpolate(g, np.zeros(g.size - 1), 1.0)

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, np.finfo(float).max])
    def test_non_finite_x_or_t_is_an_error(self, x):
        # at the largest double x, t = phi(x)/a overflows for a step a < 1
        g = build_grid(1.0, 1.0, D4, 8)
        with pytest.raises(ValueError, match="interpolate requires"):
            interpolate(g, np.ones(g.size), np.array([1.0, x]))

    def test_huge_finite_x_is_zero_without_a_warning(self):
        # t = phi(1e300)/a is an integer far off the grid; warnings are errors
        g = build_grid(1.0, 1.0, D4, 8)
        assert interpolate(g, np.ones(g.size), 1e300) == 0.0

    def test_scalar_and_array_agree(self):
        g = build_grid(1.0, 1.0, D4, 16)
        values = np.sin(g.points)
        xs = np.array([0.3, 1.7])
        arr = interpolate(g, values, xs)
        assert arr[0] == pytest.approx(interpolate(g, values, 0.3), rel=1e-14)
        assert arr[1] == pytest.approx(interpolate(g, values, 1.7), rel=1e-14)

    def test_matches_the_term_by_term_sum(self):
        # the reference sums sinc_basis term by term, one sine per term;
        # l = 4 at M = 500 is the largest flagship grid, K = 2751
        rng = np.random.default_rng(3)
        for alpha, M in [(2.5, 60), (4.5, 500)]:
            g = build_grid(alpha, 1.0, D4, M)
            values = rng.standard_normal(g.size)
            xs = np.sort(np.exp(rng.uniform(np.log(1e-3), np.log(40.0), 300)))
            z = np.asarray(map_forward(xs))
            want = sum(v * sinc_basis(m, g.a, z) for m, v in zip(g.indices, values))
            assert np.all(np.abs(interpolate(g, values, xs) - want)
                          <= 1e-14 * np.sum(np.abs(values)))

    def test_exact_nodes_inside_and_outside_the_grid(self, integer_map):
        g = integer_map
        values = np.arange(1.0, g.size + 1.0)
        k = np.arange(-g.M - 2, g.N + 3)
        got = interpolate(g, values, 100.0 + 0.5 * k)
        inside = (k >= -g.M) & (k <= g.N)
        assert np.array_equal(got[inside], values)
        assert np.all(got[~inside] == 0.0)
        off_node = interpolate(g, values, 100.25)
        assert off_node == pytest.approx(
            sum(v * sinc_basis(m, 1.0, 0.5) for m, v in zip(g.indices, values)), rel=1e-14)


class TestBlockedInterpolate:
    """Both paths of the Cauchy sum against the direct sum of np.sinc terms:
    the near and far field within _NEAR of the grid, and the row-blocked
    direct sum beyond it."""

    def test_matches_the_direct_sum_across_block_boundaries(self, integer_map):
        g = integer_map
        W = sinc._NEAR
        rows = sinc._DIRECT_ROWS
        beyond = 2 * rows + 7  # the direct path's last block is partial
        rng = np.random.default_rng(11)
        values = rng.standard_normal(g.size)
        inside = rng.uniform(-g.M - 5.0, g.N + 5.0, beyond)
        # rows past the window on both sides; x = 100 + t/2 > 0 needs t > -200
        far = np.where(np.arange(beyond) % 2 == 0, rng.uniform(g.N + W + 1.0, g.N + 140.0, beyond),
                       rng.uniform(-199.0, -g.M - W - 1.0, beyond))
        edges = [-g.M - W - 0.3, -g.M - W + 0.3, g.N + W - 0.3, g.N + W + 0.3,
                 -g.M - W - 0.7, g.N + W + 0.7]
        t = np.concatenate([np.column_stack([inside, far]).ravel(), edges])
        # nodes at both ends of the grid, and off it inside and beyond the window
        nodes = [1, 2 * rows + 1, 2 * rows + 3, 2 * rows + 5]
        t[nodes] = [-g.M, g.N, g.N + 3, g.N + 40]
        got = interpolate(g, values, 100.0 + 0.5 * t)
        want = np.sinc(t[:, None] - g.indices) @ values
        assert np.all(np.abs(got - want) <= 1e-14 * np.sum(np.abs(values)))
        assert np.array_equal(got[nodes], [values[0], values[-1], 0.0, 0.0])

    def test_series_meets_its_truncation_bound_next_to_the_near_field(self, integer_map):
        # the far field's worst ratio |r/(k - m)| is 1/2 over _NEAR + 1; t is
        # exact in binary, so x = 100 + t/2 carries no rounding into t
        g = integer_map
        values = np.zeros(g.size)
        values[g.M] = 1.0  # the interpolant is sinc(t)
        s = np.array([-1.0, 1.0])[:, None] * (sinc._NEAR + 1 + np.array([-0.46875, 0.46875]))
        got = interpolate(g, values, 100.0 + 0.5 * s.ravel())
        assert np.all(np.abs(got - sinc_basis(0, 1.0, s.ravel())) <= 1e-16)

    def test_empty_x_gives_an_empty_array(self):
        g = build_grid(1.0, 1.0, D4, 16)
        for shape in [(0,), (0, 3)]:
            got = interpolate(g, np.ones(g.size), np.empty(shape))
            assert isinstance(got, np.ndarray) and got.shape == shape

    def test_two_dimensional_x_with_nodes_matches_scalar_calls(self, integer_map):
        g = integer_map
        values = np.random.default_rng(5).standard_normal(g.size)
        t = np.array([[-g.M, 0.25, 3.0], [g.N + 2, -7.5, g.N]])
        x = 100.0 + 0.5 * t
        got = interpolate(g, values, x)
        assert got.shape == x.shape
        want = np.array([[interpolate(g, values, xi) for xi in row] for row in x])
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert got[0, 0] == values[0] and got[1, 2] == values[-1] and got[1, 0] == 0.0

    def test_memory_stays_bounded(self):
        # a P x K reciprocal matrix would be 88 MB at P = 20000, K = 551
        g = build_grid(4.5, 1.0, D4, 100)
        assert g.size == 551
        values = np.random.default_rng(2).standard_normal(g.size)
        xs = np.geomspace(0.01, 20.0, 20000)
        tracemalloc.start()
        try:
            interpolate(g, values, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_kernel_spectra_are_cached_read_only(self):
        # the far field's kernels depend on the grid size alone
        g = build_grid(4.5, 1.0, D4, 100)
        first_values, other_values = np.random.default_rng(5).standard_normal((2, g.size))
        xs = np.geomspace(0.01, 20.0, 500)
        sinc._kernel_spectra.cache_clear()
        first = interpolate(g, first_values, xs)
        spectra = sinc._kernel_spectra(g.size)
        assert not spectra.flags.writeable
        saved = spectra.copy()
        interpolate(g, other_values, xs)
        assert sinc._kernel_spectra(g.size) is spectra
        assert np.array_equal(spectra, saved)
        sinc._kernel_spectra.cache_clear()
        assert np.array_equal(interpolate(g, first_values, xs), first)


class TestQuadrature:
    def test_gamma_integrand(self):
        g = build_grid(2.0, 1.0, D4, 128)
        val = quadrature(g, lambda x: x * np.exp(-x))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_exponential_integrand(self):
        g = build_grid(1.0, 1.0, D4, 128)
        val = quadrature(g, lambda x: np.exp(-x))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_zero_integrand(self):
        g = build_grid(1.0, 1.0, D4, 32)
        assert quadrature(g, lambda x: 0.0 * x) == 0.0

    def test_scalar_only_integrand(self):
        g = build_grid(1.0, 1.0, D4, 64)
        val = quadrature(g, lambda x: math.exp(-x))
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_nonfinite_integrand_rejected(self):
        g = build_grid(1.0, 1.0, D4, 16)
        with pytest.raises(ValueError), np.errstate(divide="ignore"):
            quadrature(g, lambda x: 1.0 / (x - x[0]) if hasattr(x, "__len__") else np.inf)

    def test_error_nonincreasing_in_m(self):
        errs = []
        for M in (16, 32, 64, 128):
            g = build_grid(2.0, 1.0, D4, M)
            errs.append(abs(quadrature(g, lambda x: x * np.exp(-x)) - 1.0))
        assert all(b <= a for a, b in zip(errs, errs[1:]))
