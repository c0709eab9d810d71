"""Decay-rate fitting and the explicit strip lower bound."""

import math

import numpy as np
import pytest

from bfamlab import (
    ConfigurationError,
    EvolveConfig,
    InsufficientBandError,
    KMBound,
    RealField,
    default_gamma,
    fit_decay_radius,
    km_bound_from_run,
    km_bound_radius,
    km_bound_sigma,
    km_constants,
    km_lambda,
    make_grid,
    run,
)
from bfamlab.norms import _spectrum
from bfamlab.scenarios import initial_data
from conftest import fft_frequencies, planted_field, series_coefficients


def planted_spectrum(grid, rate, k_max=None):
    """The real field with coefficients e^{-rate |xi_k|}, zero above |k| = k_max if given."""
    k, xi = fft_frequencies(grid)
    coeffs = np.exp(-rate * np.abs(xi))
    if k_max is not None:
        coeffs[np.abs(k) > k_max] = 0.0
    return planted_field(grid, coeffs)


class TestFitDecayRadius:
    def test_planted_exponential(self):
        grid = make_grid(256, 2 * np.pi)
        fit = fit_decay_radius(planted_spectrum(grid, 0.5))
        assert abs(fit.sigma_hat - 0.5) < 1e-6
        assert fit.fit_quality > 0.999999

    def test_shift_equivariance(self):
        grid = make_grid(256, 2 * np.pi)
        delta = 0.17
        # the samples' round-off gives modes near the 1e-13 floor a relative error
        # of about 1e-4, which moves sigma_hat by about 1e-7; planted on |k| <= 24,
        # every fitted mode stays above 1e-6 of the peak
        base = fit_decay_radius(planted_spectrum(grid, 0.4, k_max=24))
        shifted = fit_decay_radius(planted_spectrum(grid, 0.4 + delta, k_max=24))
        assert base.band == shifted.band == (4, 24)
        assert shifted.sigma_hat - base.sigma_hat == pytest.approx(delta, abs=1e-8)

    def test_periodized_sech(self):
        # the transform of sech decays at rate pi/2
        grid = make_grid(2048, 80.0)
        u = initial_data("sech", {"amplitude": 1.0, "width": 1.0}, grid)
        fit = fit_decay_radius(u)
        assert fit.sigma_hat == pytest.approx(np.pi / 2, rel=0.02)

    def test_sech_transform_against_quadrature(self):
        # closed form |u_hat(xi)| = (pi/L) sech(pi xi / 2), checked by dense
        # quadrature of the transform integral at a few modes
        grid = make_grid(2048, 80.0)
        u = initial_data("sech", {"amplitude": 1.0, "width": 1.0}, grid)
        u_hat = series_coefficients(u)
        x = np.linspace(-40.0, 40.0, 200001)
        for k in (10, 40, 120):
            xi = 2 * np.pi * k / 80.0
            integrand = (1.0 / np.cosh(x)) * np.exp(-1j * xi * x)
            oracle = abs(np.trapezoid(integrand, x)) / 80.0
            assert abs(u_hat[k]) == pytest.approx(oracle, rel=1e-6)
            assert oracle == pytest.approx(np.pi / 80.0 / np.cosh(np.pi * xi / 2), rel=1e-6)

    @staticmethod
    def assert_matches_polyfit(u):
        # the band, floor flag and slope of the same fit made with np.polyfit
        # on the whole half spectrum
        amp = np.abs(np.fft.rfft(u.samples)) / u.grid.n_points
        abs_xi = np.abs(fft_frequencies(u.grid)[1][: amp.size])
        ks = np.arange(1, amp.size - 1)
        candidate, above = ks >= 4, amp[ks] > 1e-13 * amp.max()
        usable = ks[candidate & above]
        slope = np.polyfit(abs_xi[usable], np.log(amp[usable]), 1)[0]
        fit = fit_decay_radius(_spectrum(u))
        assert fit.band == (usable[0], usable[-1])
        assert fit.floor_hit == bool(np.any(candidate & ~above))
        assert fit.sigma_hat == pytest.approx(-slope, rel=1e-13)

    def test_half_spectrum_fit_agrees_on_sech(self):
        grid = make_grid(2048, 80.0)
        u = initial_data("sech", {"amplitude": 1.0, "width": 1.0}, grid)
        self.assert_matches_polyfit(u)
        # a field is read through the same half spectrum
        assert fit_decay_radius(u) == fit_decay_radius(_spectrum(u))

    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0])
    def test_half_spectrum_fit_agrees_on_criterion_09_states(self, b):
        grid = make_grid(1024, 80.0)
        u0 = initial_data("sech", {"amplitude": 0.05, "width": 1.0}, grid)
        cfg = EvolveConfig(b=b, t_final=10.0, dt_max=0.02, sample_interval=0.5)
        for _, u in run(u0, cfg).snapshots:
            self.assert_matches_polyfit(u)

    def test_super_exponential_warns_and_flags_floor(self):
        grid = make_grid(1024, 80.0)
        u = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
        with pytest.warns(UserWarning, match="super-exponential"):
            fit = fit_decay_radius(u)
        assert fit.floor_hit
        assert fit.sigma_hat > np.pi  # far above any sech-type rate here

    def test_insufficient_band(self):
        grid = make_grid(64, 2 * np.pi)
        u = RealField(grid, np.sin(grid.x))
        with pytest.raises(InsufficientBandError):
            fit_decay_radius(u)

    def test_zero_spectrum(self):
        grid = make_grid(64, 2 * np.pi)
        with pytest.raises(InsufficientBandError):
            fit_decay_radius(RealField(grid, np.zeros(64)))

    def test_band_respects_k_min(self):
        grid = make_grid(256, 2 * np.pi)
        fit = fit_decay_radius(planted_spectrum(grid, 0.3), k_min=10)
        assert fit.band[0] == 10

    @pytest.mark.parametrize("k_min", [4.5, 4.0, True, 0])
    def test_k_min_must_be_an_integer(self, k_min):
        # k_min = 4.5 would fit from k = 5, and True from k = 1
        grid = make_grid(256, 2 * np.pi)
        with pytest.raises(ConfigurationError, match="k_min must be an integer >= 1"):
            fit_decay_radius(planted_spectrum(grid, 0.3), k_min=k_min)


class TestKmConstants:
    def test_paper_rate_a(self):
        a_val, _ = km_constants(2.0, 1.0, 1.0)
        assert a_val == 128.0

    def test_paper_rate_b(self):
        _, b_val = km_constants(2.0, 1.0, 1.0)
        assert b_val == 768.0

    def test_linear_in_p(self):
        a_val, _ = km_constants(3.0, 0.0, 1.0)
        assert a_val == 0.0

    def test_twenty_random_triples_against_reader(self, rng):
        for _ in range(20):
            b = float(rng.uniform(-4, 6))
            p = float(rng.uniform(0, 3))
            q = float(rng.uniform(0, 3))
            a_val, b_val = km_constants(b, p, q)
            a_oracle = (32 + 16 * abs(b) + 64 * abs(3 - b)) * p
            b_oracle = (64 + 32 * abs(b) + 256 * abs(3 - b)) * (1 + p) * q**0.5
            assert a_val == pytest.approx(a_oracle, rel=1e-15)
            assert b_val == pytest.approx(b_oracle, rel=1e-15)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            km_constants(2.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            km_constants(2.0, 1.0, -0.1)


class TestKmLambda:
    def test_reference_value(self):
        assert km_lambda(2.0, 1.0, 1.0) == pytest.approx(12.0, rel=1e-15)

    def test_zero_phi_gives_zero(self):
        assert km_lambda(2.0, 1.0, 0.0) == 0.0

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            km_lambda(2.0, 0.0, 1.0)

    @pytest.mark.parametrize("b,mu,phi0", [(2.0, 1.7, 0.9), (-1.0, 2.3, 4.0), (0.0, 1.1, 0.2)])
    def test_closed_form_matches_ode_integration(self, b, mu, phi0):
        # RK4 on dsigma/dt = -B(mu, Phi), dPhi/dt = A(mu) Phi
        gamma = -0.1
        a_rate, _ = km_constants(b, mu, phi0)
        lam = km_lambda(b, mu, phi0)
        T = 2.0 / a_rate
        steps = 20000
        h = T / steps
        sigma, phi = gamma, phi0

        def rates(state):
            s, p = state
            return np.array([-km_constants(b, mu, p)[1], a_rate * p])

        y = np.array([sigma, phi])
        for _ in range(steps):
            k1 = rates(y)
            k2 = rates(y + 0.5 * h * k1)
            k3 = rates(y + 0.5 * h * k2)
            k4 = rates(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        closed = gamma - lam * (math.exp(a_rate * T / 2.0) - 1.0)
        assert abs(y[0] - closed) / abs(closed) < 1e-6


class TestKmBound:
    def bound(self, gamma=-0.1):
        return KMBound(b=2.0, mu=1.0, K_rate=128.0, gamma=gamma, lam=12.0, phi0=1.0)

    def test_at_time_zero(self):
        bound = self.bound(gamma=-0.3)
        assert km_bound_sigma(0.0, bound) == pytest.approx(-0.3)
        assert km_bound_radius(0.0, bound) == pytest.approx(math.exp(-0.3))
        assert km_bound_radius(0.0, bound) < 1.0

    def test_formula_value(self):
        # gamma - lambda (e^{K t/2} - 1) at t = 0.01, K = 128, lambda = 12
        value = km_bound_sigma(0.01, self.bound())
        assert value == pytest.approx(-0.1 - 12.0 * (math.exp(0.64) - 1.0), rel=1e-12)

    def test_strictly_decreasing(self):
        bound = self.bound()
        ts = np.linspace(0.0, 0.2, 40)
        sigmas = [km_bound_sigma(t, bound) for t in ts]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    def test_radius_in_unit_interval(self):
        bound = self.bound()
        for t in (0.0, 0.05, 0.5):
            assert 0.0 <= km_bound_radius(t, bound) < 1.0

    def test_overflow_saturates(self):
        bound = self.bound()
        assert km_bound_sigma(1e3, bound) == -math.inf
        assert km_bound_radius(1e3, bound) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            km_bound_sigma(-1.0, self.bound())

    def test_gamma_must_be_negative(self):
        with pytest.raises(ConfigurationError):
            KMBound(b=2.0, mu=1.0, K_rate=128.0, gamma=0.1, lam=1.0, phi0=1.0)


class TestKmBoundFromRun:
    def test_zero_trajectory_degenerates(self):
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, np.zeros(64))
        cfg = EvolveConfig(b=2.0, t_final=0.2, dt_max=0.05, sample_interval=0.1)
        trajectory = run(u0, cfg)
        bound = km_bound_from_run(trajectory, gamma=-0.2)
        assert bound.mu == 1.0
        assert bound.phi0 == 0.0
        assert bound.lam == 0.0
        assert km_bound_sigma(5.0, bound) == pytest.approx(-0.2)

    def test_single_snapshot_mu(self):
        from bfamlab import sobolev_norm

        grid = make_grid(128, 2 * np.pi)
        u0 = RealField(grid, 0.5 * np.sin(grid.x))
        cfg = EvolveConfig(b=2.0, t_final=0.0, dt_max=0.05, sample_interval=0.1)
        trajectory = run(u0, cfg)
        bound = km_bound_from_run(trajectory, gamma=-0.1)
        assert bound.mu == pytest.approx(1.0 + sobolev_norm(u0, 2.0), rel=1e-13)

    def test_given_h2_norms(self):
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, 0.5 * np.sin(grid.x))
        cfg = EvolveConfig(b=2.0, t_final=0.2, dt_max=0.05, sample_interval=0.1)
        trajectory = run(u0, cfg)
        assert km_bound_from_run(trajectory, -0.1, h2_norms=[1.0, 4.0, 2.0]).mu == 5.0
        with pytest.raises(ConfigurationError):
            km_bound_from_run(trajectory, -0.1, h2_norms=[1.0, 4.0])

    def test_gamma_validation(self):
        grid = make_grid(64, 2 * np.pi)
        cfg = EvolveConfig(b=2.0, t_final=0.0, dt_max=0.05, sample_interval=0.1)
        trajectory = run(RealField(grid, np.zeros(64)), cfg)
        with pytest.raises(ConfigurationError):
            km_bound_from_run(trajectory, gamma=0.0)


class TestDefaultGamma:
    def test_large_measured_radius_clips_at_minus_005(self):
        assert default_gamma(5.0) == pytest.approx(min(-0.05, math.log(0.9)))

    def test_small_measured_radius(self):
        assert default_gamma(0.5) == pytest.approx(math.log(0.45))

    def test_nan_measured_radius_gives_the_missing_fit_fallback(self):
        assert default_gamma(math.nan) == -0.05

    def test_zero_measured_radius_stays_finite(self):
        assert math.isfinite(default_gamma(0.0))
        assert default_gamma(0.0) < 0
