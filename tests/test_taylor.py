"""Time-Taylor recursion, series evaluation, and temporal radius estimation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bfamlab import (
    ConfigurationError,
    RealField,
    TaylorSeries,
    make_grid,
    rhs_F,
    sobolev_norm,
    taylor_coeffs,
    taylor_eval,
    time_radius_estimate,
)
from bfamlab.dynamics import _Operator
from bfamlab.scenarios import initial_data
from bfamlab.taylor import _recursion
from conftest import (
    conservative_band,
    reference_derivative,
    reference_march,
    reference_wavenumbers,
)


def loop_coeffs(u0, b, order, dtype=np.float64):
    """Reference recursion: one sequential multiply-add per Cauchy term,
    derivatives by an rfft round trip of each coefficient, and the
    conservative-form right-hand side of numpy.fft alone."""
    n, box_length = u0.grid.n_points, u0.grid.box_length
    cs = [u0.samples.astype(dtype)]
    dcs = []
    for k in range(order):
        dcs.append(reference_derivative(cs[k], box_length))
        square, dsquare = np.zeros(n, dtype), np.zeros(n, dtype)
        for i in range(k + 1):
            square += cs[i] * cs[k - i]
            dsquare += dcs[i] * dcs[k - i]
        cs.append(np.fft.irfft(-conservative_band(square, dsquare, b, box_length), n) / (k + 1))
    return cs


def symmetric_coeffs(u0, b, order):
    """The symmetric recursion in plain numpy and numpy.fft: c_k and d_x c_k
    as rows of two arrays; each Cauchy sum one einsum over the pairs
    i < k - i, doubled, plus the middle term i = k/2 for even k; the band of
    -F as A rfft(sum of c c) + B rfft(sum of d_x c d_x c); c_{k+1} and
    d_x c_{k+1} by the unscaled irfft of that band and of i xi times it,
    times -1/((k + 1) n). A and B are those of `reference_march` in
    conftest."""
    grid = u0.grid
    n, m = grid.n_points, grid.band_size
    ixi, xi, _ = reference_wavenumbers(n, grid.box_length)
    nonlocal_ = ixi[:m] * (1.0 / (1.0 + xi[:m] ** 2))
    A, B = 0.5 * (ixi[:m] + b * nonlocal_), (0.5 * (3.0 - b)) * nonlocal_
    cs, dcs = np.empty((order + 1, n)), np.empty((order + 1, n))
    cs[0] = u0.samples
    dcs[0] = np.fft.irfft(ixi * np.fft.rfft(u0.samples), n)
    for k in range(order):
        pairs = (k + 1) // 2
        square = 2.0 * np.einsum("ij,ij->j", cs[:pairs], cs[k : k - pairs : -1])
        dsquare = 2.0 * np.einsum("ij,ij->j", dcs[:pairs], dcs[k : k - pairs : -1])
        if k % 2 == 0:
            square = square + cs[k // 2] * cs[k // 2]
            dsquare = dsquare + dcs[k // 2] * dcs[k // 2]
        spectrum = np.zeros(n // 2 + 1, dtype=complex)
        spectrum[:m] = A * np.fft.rfft(square)[:m] + B * np.fft.rfft(dsquare)[:m]
        factor = -1 / ((k + 1) * n)
        cs[k + 1] = np.fft.irfft(spectrum, n, norm="forward") * factor
        dcs[k + 1] = np.fft.irfft(ixi * spectrum, n, norm="forward") * factor
    return cs


def max_rel_gap(coeffs, reference):
    return max(
        float(np.max(np.abs(c - r)) / np.max(np.abs(r))) for c, r in zip(coeffs, reference)
    )


class TestRecursion:
    def test_zero_datum_gives_zero_series(self, grid_2pi):
        series = taylor_coeffs(RealField(grid_2pi, np.zeros(64)), 2.0, 6)
        for c in series.coeffs[1:]:
            assert np.max(np.abs(c.samples)) == 0.0

    def test_c1_equals_rhs(self, random_field):
        # anti-drift oracle: first coefficient is the direct right-hand side
        for b in (-1.0, 0.0, 2.0, 3.0):
            series = taylor_coeffs(random_field, b, 1)
            expected = rhs_F(random_field, b)
            assert np.array_equal(series.coeffs[1].samples, expected.samples)

    def test_c1_closed_form(self):
        grid = make_grid(128, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))
        for b in (0.0, 2.0, 5.5):
            series = taylor_coeffs(u0, b, 2)
            expected = -((1.0 + b) / 5.0) * np.sin(2 * grid.x)
            assert np.max(np.abs(series.coeffs[1].samples - expected)) < 1e-12

    def test_sine_steady_series_at_b_minus_one(self):
        # all c_k for k >= 1 vanish by induction; at modest resolution the
        # spectral round-off amplification stays below 1e-12
        grid = make_grid(32, 2 * np.pi)
        series = taylor_coeffs(RealField(grid, np.sin(grid.x)), -1.0, 8)
        worst = max(np.max(np.abs(c.samples)) for c in series.coeffs[1:])
        assert worst < 1e-12

    @pytest.mark.parametrize("alpha", [-2.0, 0.5])
    def test_coefficient_scaling(self, random_field, alpha):
        # quadratic RHS: scaling the datum by alpha scales c_k by alpha^{k+1};
        # keep the datum small so no coefficient hits the overflow cap
        b = 2.0
        grid = random_field.grid
        datum = RealField(
            grid, 0.3 * random_field.samples / np.max(np.abs(random_field.samples))
        )
        base = taylor_coeffs(datum, b, 6)
        scaled_datum = RealField(grid, alpha * datum.samples)
        scaled = taylor_coeffs(scaled_datum, b, 6)
        for k in range(1, 7):
            expected = alpha ** (k + 1) * base.coeffs[k].samples
            scale = np.max(np.abs(expected)) or 1.0
            assert np.max(np.abs(scaled.coeffs[k].samples - expected)) / scale < 1e-10

    def test_order_validation(self, random_field):
        with pytest.raises(ConfigurationError):
            taylor_coeffs(random_field, 2.0, 0)

    @pytest.mark.parametrize("order", [2.5, 3.0, True])
    def test_non_integral_order_rejected(self, random_field, order):
        with pytest.raises(ConfigurationError, match="order must be an integer"):
            taylor_coeffs(random_field, 2.0, order)

    def test_numpy_integer_order_accepted(self, random_field):
        assert taylor_coeffs(random_field, 2.0, np.int64(3)).order == 3

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_non_finite_b_rejected(self, random_field, b):
        with pytest.raises(ConfigurationError, match="b must be finite"):
            taylor_coeffs(random_field, b, 4)


class TestAgainstLoop:
    """The stacked, symmetric recursion against the sequential loop."""

    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0])
    @pytest.mark.parametrize("order", [1, 2, 3, 12])
    def test_matches_loop(self, b, order):
        # modes spread over the band keep the recursion well conditioned;
        # orders 1..12 cover odd and even k for the middle term
        grid = make_grid(64, 2 * np.pi)
        x = grid.x
        u0 = RealField(grid, 0.2 * np.sin(x) + 0.15 * np.cos(4 * x + 1.0) + 0.1 * np.sin(7 * x + 0.4))
        coeffs = [c.samples for c in taylor_coeffs(u0, b, order).coeffs]
        reference = loop_coeffs(u0, b, order)
        assert len(coeffs) == order + 1
        assert max_rel_gap(coeffs, reference) <= 1e-13

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended precision here"
    )
    @pytest.mark.parametrize("b", [-1.0, 0.0])
    def test_no_less_accurate_than_loop(self, b):
        # the recursion is ill conditioned for a sine-dominated datum at b = -1
        # (where sin x alone is steady) and b = 0: both float64 versions lose
        # digits, 1e-11 to 1e-9 relative at K = 12. Measured against the loop
        # in extended precision, the stacked form must stay as accurate as the
        # float64 loop.
        grid = make_grid(64, 2 * np.pi)
        x = grid.x
        u0 = RealField(grid, 0.3 * np.sin(x) + 0.1 * np.cos(2 * x) + 0.05 * np.sin(3 * x + 0.4))
        exact = loop_coeffs(u0, b, 12, np.longdouble)
        loop_error = max_rel_gap(loop_coeffs(u0, b, 12), exact)
        error = max_rel_gap([c.samples for c in taylor_coeffs(u0, b, 12).coeffs], exact)
        assert loop_error > 1e-12
        assert error <= 2.0 * loop_error


class TestArithmetic:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0])
    @pytest.mark.parametrize("order", [1, 2, 12])
    def test_matches_symmetric_recursion_bit_for_bit(self, rng, n, b, order):
        # a datum that fills every mode: any change to an order's arithmetic
        # or its order of operations shows in the bytes
        grid = make_grid(n, 2 * np.pi)
        k = np.arange(n // 2 + 1)
        coeffs = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) / (1.0 + k) ** 2
        samples = np.fft.irfft(coeffs, n)
        u0 = RealField(grid, 0.5 * samples / np.max(np.abs(samples)))
        series = taylor_coeffs(u0, b, order)
        assert series.order == order
        coefficients = np.array([c.samples for c in series.coeffs])
        assert coefficients.tobytes() == symmetric_coeffs(u0, b, order).tobytes()

    def test_series_keeps_no_derivative_rows(self):
        # the series holds c_1 .. c_K and no more: K N float64 values, with
        # room for its Python objects
        grid = make_grid(1024, 8 * np.pi)
        u = RealField(grid, 0.45 * np.sin(grid.x + 1.0))
        taylor_coeffs(u, 2.0, 2)  # the grid builds its multipliers on first use
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            series = taylor_coeffs(u, 2.0, 32)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert series.order == 32
        assert retained <= 1.1 * 32 * 1024 * 8

    @pytest.mark.parametrize("amplitude, order", [(10.0, 10), (0.5, 16)])
    def test_kept_rows_share_one_block(self, amplitude, order):
        # 10 sin x reaches the coefficient cap at c_11: its c_1 .. c_10 are
        # one (10, N) block, with no row beyond the cut kept alive
        grid = make_grid(64, 2 * np.pi)
        u = RealField(grid, amplitude * np.sin(grid.x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = taylor_coeffs(u, 2.0, 16)
        assert series.order == order
        block = series.coeffs[1].samples.base
        assert block.shape == (order, 64) and block.flags.c_contiguous
        assert all(c.samples.base is block for c in series.coeffs[1:])


class TestCap:
    def test_overflow_past_the_cap_is_silent(self):
        # 1e5 sin x passes the cap at c_2 and its later orders overflow to
        # inf and NaN: the recursion computes them with no RuntimeWarning
        grid = make_grid(64, 2 * np.pi)
        u = RealField(grid, 1e5 * np.sin(grid.x))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "Taylor coefficient c_", UserWarning)
            series = taylor_coeffs(u, 2.0, 40)
        assert series.order == 1

    def test_cut_of_ten_sin_x_is_pinned(self):
        # 10 sin x is cut at c_11: the kept rows are the symmetric
        # recursion's bit for bit, and the sup of c_11 is the one a check of
        # max|c_k| after each order read, 4762659194631.113, to round-off
        grid = make_grid(64, 2 * np.pi)
        u = RealField(grid, 10.0 * np.sin(grid.x))
        with pytest.warns(UserWarning, match="c_11 reached sup norm") as record:
            series = taylor_coeffs(u, 2.0, 16)
        assert series.order == 10
        kept = np.array([c.samples for c in series.coeffs])
        assert kept.tobytes() == symmetric_coeffs(u, 2.0, 10).tobytes()
        coeffs, sup = _recursion(_Operator(u, 2.0), np.empty((18, 2, 64)))
        assert len(coeffs) == 10
        assert sup == pytest.approx(4762659194631.113, rel=1e-15)
        assert f"{sup:.3e}" in str(record[0].message)


class TestFftBudget:
    """Transform and combine counts of the recursion and of evaluation."""

    @pytest.fixture
    def u(self):
        return initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, make_grid(256, 80.0))

    @pytest.mark.parametrize("order", [1, 2, 16])
    def test_coeffs_budget(self, u, fft_counts, order):
        # 2 for d_x c_0, then 4 per order in two stacked calls
        assert taylor_coeffs(u, 2.0, order).order == order
        assert fft_counts == {"real": 4 * order + 2, "complex": 0, "calls": 2 * order + 2, "combine": order}

    @pytest.mark.parametrize("order", [1, 2, 16])
    def test_coeffs_budget_at_b3(self, u, fft_counts, order):
        # rfft(c_0), then 2 per order: at b = 3 no d_x c_k is formed
        assert taylor_coeffs(u, 3.0, order).order == order
        assert fft_counts == {"real": 2 * order + 1, "complex": 0, "calls": 2 * order + 1, "combine": order}

    def test_eval_reuses_radius(self, u, fft_counts):
        series = taylor_coeffs(u, 2.0, 8)
        radius = time_radius_estimate(series)
        fft_counts.update(real=0, complex=0, calls=0, combine=0)
        taylor_eval(series, 0.5 * radius)
        assert time_radius_estimate(series) == radius
        assert fft_counts == {"real": 0, "complex": 0, "calls": 0, "combine": 0}


    def test_radius_takes_no_fft(self, u, fft_counts):
        series = taylor_coeffs(u, 2.0, 8)
        fft_counts.update(real=0, complex=0, calls=0, combine=0)
        time_radius_estimate(series)
        assert fft_counts == {"real": 0, "complex": 0, "calls": 0, "combine": 0}


class TestSeriesValidation:
    def test_coefficients_on_another_box_rejected(self, random_field):
        wide = RealField(make_grid(64, 4 * np.pi), random_field.samples)
        with pytest.raises(ConfigurationError, match="c_1 lies on"):
            TaylorSeries(b=2.0, coeffs=(random_field,) + (wide,) * 8)

    def test_coefficients_on_another_resolution_rejected(self, random_field):
        fine = RealField(make_grid(128, 2 * np.pi), np.zeros(128))
        with pytest.raises(ConfigurationError, match="c_2 lies on"):
            TaylorSeries(b=2.0, coeffs=(random_field, random_field, fine))

    def test_equal_grids_accepted(self, random_field):
        twin = RealField(make_grid(64, 2 * np.pi), random_field.samples)
        assert twin.grid is not random_field.grid
        series = TaylorSeries(b=2.0, coeffs=(random_field, twin))
        assert taylor_eval(series, 0.5).samples.tobytes() == (1.5 * random_field.samples).tobytes()

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_non_finite_b_rejected(self, random_field, b):
        with pytest.raises(ConfigurationError, match="b must be finite"):
            TaylorSeries(b=b, coeffs=(random_field, random_field))


class TestEvaluation:
    def test_t_zero_returns_datum(self, random_field):
        series = taylor_coeffs(random_field, 2.0, 4)
        out = taylor_eval(series, 0.0)
        assert np.array_equal(out.samples, random_field.samples)

    def test_zero_tail_series_is_constant(self, grid_2pi, random_field):
        zero = RealField(grid_2pi, np.zeros(64))
        series = TaylorSeries(b=2.0, coeffs=(random_field, zero, zero))
        for t in (0.1, 1.0, 10.0):
            assert np.array_equal(taylor_eval(series, t).samples, random_field.samples)

    def test_truncation_error_decays_geometrically(self):
        grid = make_grid(256, 80.0)
        u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
        rho = time_radius_estimate(taylor_coeffs(u0, 2.0, 16))
        t = rho / 2
        diffs = []
        for order in (6, 8, 10, 12):
            lo = taylor_eval(taylor_coeffs(u0, 2.0, order), t)
            hi = taylor_eval(taylor_coeffs(u0, 2.0, order + 2), t)
            diffs.append(
                sobolev_norm(RealField(grid, lo.samples - hi.samples), 0.0)
            )
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_rejected(self, random_field, t):
        series = taylor_coeffs(random_field, 2.0, 4)
        with pytest.raises(ConfigurationError, match="t must be finite"):
            taylor_eval(series, t)

    def test_warns_outside_radius(self):
        grid = make_grid(256, 80.0)
        u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
        series = taylor_coeffs(u0, 2.0, 10)
        rho = time_radius_estimate(series)
        with pytest.warns(UserWarning, match="outside the estimated temporal radius"):
            taylor_eval(series, 2.0 * rho)


class TestRadiusEstimate:
    def test_exact_zero_tail_gives_infinity(self, grid_2pi, random_field):
        zero = RealField(grid_2pi, np.zeros(64))
        series = TaylorSeries(b=2.0, coeffs=(random_field,) + (zero,) * 8)
        assert time_radius_estimate(series) == math.inf

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_planted_geometric_decay(self, grid_2pi, r):
        # unit-norm profile makes the root test exact
        profile = np.sin(grid_2pi.x)
        profile /= sobolev_norm(RealField(grid_2pi, profile), 0.0)
        coeffs = tuple(
            RealField(grid_2pi, profile * r ** (-k)) for k in range(13)
        )
        series = TaylorSeries(b=2.0, coeffs=coeffs)
        assert time_radius_estimate(series) == pytest.approx(r, rel=0.05)

    def test_too_few_coefficients_rejected(self, random_field):
        # order 5 holds c_0 .. c_5, six coefficients, and is still one short
        series = taylor_coeffs(random_field, 2.0, 5)
        with pytest.raises(ConfigurationError, match=r"needs order at least 6, got order 5$"):
            time_radius_estimate(series)

    @pytest.mark.parametrize("order", [6, 16, 64])
    def test_matches_sobolev_root_test(self, order):
        grid = make_grid(256, 80.0)
        u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
        series = taylor_coeffs(u0, 2.0, order)
        assert series.order == order
        tail = range((order + 1) // 2, order + 1)
        expected = 1.0 / max(sobolev_norm(series.coeffs[k], 0.0) ** (1.0 / k) for k in tail)
        assert time_radius_estimate(series) == pytest.approx(expected, rel=1e-13)

    def test_gaussian_radius_positive_and_finite(self):
        grid = make_grid(256, 80.0)
        u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
        rho = time_radius_estimate(taylor_coeffs(u0, 2.0, 16))
        assert 0.0 < rho < math.inf


class TestAgainstStepper:
    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_matches_fine_stepper(self, b):
        grid = make_grid(256, 80.0)
        u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
        series = taylor_coeffs(u0, b, 12)
        t = 0.01
        endpoint = RealField(grid, reference_march(u0, b, t, 2000))
        approx = taylor_eval(series, t)
        rel = sobolev_norm(
            RealField(grid, approx.samples - endpoint.samples), 0.0
        ) / sobolev_norm(endpoint, 0.0)
        assert rel < 1e-8

    def test_matches_stepper_inside_certified_disk(self):
        grid = make_grid(256, 80.0)
        u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
        series = taylor_coeffs(u0, 2.0, 16)
        rho = time_radius_estimate(series)
        t = rho / 4
        endpoint = RealField(grid, reference_march(u0, 2.0, t, 4000))
        approx = taylor_eval(series, t)
        rel = sobolev_norm(
            RealField(grid, approx.samples - endpoint.samples), 0.0
        ) / sobolev_norm(endpoint, 0.0)
        assert rel < 1e-6
