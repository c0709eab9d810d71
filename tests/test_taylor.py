"""Time-Taylor recursion, series evaluation, and temporal radius estimation."""

import math

import numpy as np
import pytest

from bfamlab import (
    ConfigurationError,
    EvolveConfig,
    RealField,
    TaylorSeries,
    make_grid,
    rhs_F,
    run,
    sobolev_norm,
    taylor_coeffs,
    taylor_eval,
    time_radius_estimate,
)
from bfamlab.scenarios import initial_data


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
        series = taylor_coeffs(random_field, 2.0, 4)
        with pytest.raises(ConfigurationError):
            time_radius_estimate(series)

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
        cfg = EvolveConfig(
            b=b, t_final=t, dt_max=t / 2000, sample_interval=t, cfl_safety=1.0
        )
        endpoint = run(u0, cfg).final_state
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
        cfg = EvolveConfig(
            b=2.0, t_final=t, dt_max=t / 4000, sample_interval=t, cfl_safety=1.0
        )
        endpoint = run(u0, cfg).final_state
        approx = taylor_eval(series, t)
        rel = sobolev_norm(
            RealField(grid, approx.samples - endpoint.samples), 0.0
        ) / sobolev_norm(endpoint, 0.0)
        assert rel < 1e-6
