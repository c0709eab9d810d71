"""Sobolev, Gevrey, Himonas-Misiolek, and Kato-Masuda norm implementations."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

import bfamlab
from bfamlab import (
    ConfigurationError,
    RealField,
    TruncationError,
    gevrey_norm,
    hm_norm,
    km_phi,
    km_radius_norm,
    make_grid,
    sobolev_norm,
)
from bfamlab import norms
from conftest import derivative, fft_frequencies, planted_field, series_coefficients


def sine(grid, k=1):
    return RealField(grid, np.sin(k * grid.x))


class TestSobolev:
    def test_sine_l2(self, grid_2pi):
        assert sobolev_norm(sine(grid_2pi), 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_sine_h2(self, grid_2pi):
        assert sobolev_norm(sine(grid_2pi), 2.0) == pytest.approx(
            2 * np.sqrt(np.pi), rel=1e-13
        )

    def test_zero(self, grid_2pi):
        assert sobolev_norm(RealField(grid_2pi, np.zeros(64)), 2.0) == 0.0

    def test_sech_closed_form_at_s10(self):
        # |u_hat| = (pi w / L) sech(pi w xi / 2) for sech(x / w) on a wide box;
        # with (1 + xi^2)^10 the round-off modes near the Nyquist mode would
        # outweigh the resolved ones tenfold
        n, box, w, s = 4096, 80.0, 0.9, 10.0
        grid = make_grid(n, box)
        u = RealField(grid, 1.0 / np.cosh((grid.x - box / 2) / w))
        xi = np.abs(fft_frequencies(grid)[1][: n // 2 + 1])
        pair = np.full(xi.size, 2.0)
        pair[[0, -1]] = 1.0
        amp = (np.pi * w / box) / np.cosh(np.pi * w * xi / 2)
        expected = math.sqrt(box * np.sum(pair * (1.0 + xi**2) ** s * amp**2))
        assert sobolev_norm(u, s) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("s", [30.0, 200.0])
    def test_sine_at_large_s(self, grid_2pi, s):
        assert sobolev_norm(sine(grid_2pi), s) == pytest.approx(
            math.sqrt(math.pi * 2.0**s), rel=1e-12
        )

    @pytest.mark.filterwarnings("error")
    def test_beyond_double_range_is_inf(self, grid_2pi):
        u = sine(grid_2pi)
        assert sobolev_norm(u, 2100.0) == math.inf  # sqrt(pi 2^2100)
        assert gevrey_norm(u, 0.1, 2100.0).value == math.inf
        assert hm_norm(u, 1.0, 1100) == math.inf  # each term carries 2^1100
        assert km_phi(u, 400.0, 2) == math.inf  # e^1600 / 4 * 2 pi
        assert km_radius_norm(u, 7.0, j_max=3000) == math.inf  # about e^{e^7}


class TestGevrey:
    def test_sigma_zero_equals_sobolev(self, random_field):
        for s in (0.0, 1.0, 2.0):
            value, diverged = gevrey_norm(random_field, 0.0, s)
            assert not diverged
            assert value == sobolev_norm(random_field, s)

    def test_cosine_closed_form(self, grid_2pi):
        u = RealField(grid_2pi, np.cos(grid_2pi.x))
        value, diverged = gevrey_norm(u, 1.0, 0.0)
        assert not diverged
        assert value == pytest.approx(np.sqrt(np.pi * np.e**2), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_large_s_stays_finite(self, grid_2pi):
        # (1 + xi^2)^200 overflowed the old linear sum to inf
        u = RealField(grid_2pi, np.exp(np.sin(grid_2pi.x)))
        value, diverged = gevrey_norm(u, 0.1, 200.0)
        assert math.isfinite(value) and value > 1e200

    def test_divergence_flag_on_planted_spectrum(self):
        grid = make_grid(256, 2 * np.pi)
        u = planted_field(grid, np.exp(-0.2 * np.abs(fft_frequencies(grid)[1])))
        assert gevrey_norm(u, 0.5, 0.0).diverged
        assert not gevrey_norm(u, 0.1, 0.0).diverged

    def test_negative_sigma_rejected(self, random_field):
        with pytest.raises(ConfigurationError):
            gevrey_norm(random_field, -0.1, 0.0)

    def test_monotone_in_sigma_and_s(self, random_field):
        values = [gevrey_norm(random_field, sigma, 1.0).value for sigma in (0.0, 0.2, 0.5)]
        assert values == sorted(values)
        values = [gevrey_norm(random_field, 0.2, s).value for s in (0.0, 1.0, 2.0)]
        assert values == sorted(values)

    def test_embeds_sobolev(self, random_field):
        for sigma in (0.0, 0.3, 1.0):
            assert (
                sobolev_norm(random_field, 1.5)
                <= gevrey_norm(random_field, sigma, 1.5).value * (1 + 1e-14)
            )

    def test_zero_field(self, grid_2pi):
        value, diverged = gevrey_norm(RealField(grid_2pi, np.zeros(64)), 1.0, 2.0)
        assert value == 0.0 and not diverged


class TestLineFit:
    @pytest.mark.parametrize("size", [3, 4, 7, 50, 280, 2000])
    def test_matches_polyfit(self, rng, size):
        # from a half of the smallest decay-fit band to the largest spectra
        x = np.sort(rng.uniform(0.0, 30.0, size))
        y = 2.0 - 0.7 * x + 0.1 * rng.standard_normal(size)
        slope, intercept = norms._line_fit(x, y)
        expected = np.polyfit(x, y, 1)
        assert slope == pytest.approx(expected[0], rel=1e-12)
        assert intercept == pytest.approx(expected[1], rel=1e-12)

    def test_divergence_flags_match_polyfit(self, grid_2pi, random_field, monkeypatch):
        # the verdicts on this module's Gevrey cases, with the closed-form line
        # and with np.polyfit in its place
        grid = make_grid(256, 2 * np.pi)
        planted = planted_field(grid, np.exp(-0.2 * np.abs(fft_frequencies(grid)[1])))
        cases = [(random_field, sigma, s)
                 for sigma in (0.0, 0.2, 0.3, 0.5, 1.0) for s in (0.0, 1.0, 1.5, 2.0)]
        cosine = RealField(grid_2pi, np.cos(grid_2pi.x))
        cases += [(cosine, 1.0, 0.0), (planted, 0.5, 0.0), (planted, 0.1, 0.0)]
        flags = [gevrey_norm(u, sigma, s).diverged for u, sigma, s in cases]
        monkeypatch.setattr(norms, "_line_fit", lambda x, y: tuple(np.polyfit(x, y, 1)))
        assert flags == [gevrey_norm(u, sigma, s).diverged for u, sigma, s in cases]
        assert flags[-2:] == [True, False]


class TestHimonasMisiolek:
    @pytest.mark.parametrize("m", [2, 3])
    def test_sine_closed_form(self, grid_2pi, m):
        # each |d^j sin|_{H^{2m}} = 2^m sqrt(pi); sup of (j+1)^2/j! is 9/2 at j=2
        value = hm_norm(sine(grid_2pi), 1.0, m)
        assert value == pytest.approx(4.5 * 2**m * np.sqrt(np.pi), rel=1e-10)

    def test_sup_index_by_enumeration(self, grid_2pi):
        # direct enumeration of sigma^j (j+1)^2/j! |d^j u|_{H^4} for sin x
        sigma, m = 1.0, 2
        terms = [
            sigma**j * (j + 1) ** 2 / math.factorial(j) * 2**m * np.sqrt(np.pi)
            for j in range(20)
        ]
        assert np.argmax(terms) == 2
        assert hm_norm(sine(grid_2pi), sigma, m) == pytest.approx(max(terms), rel=1e-10)

    def test_zero_field(self, grid_2pi):
        assert hm_norm(RealField(grid_2pi, np.zeros(64)), 1.0, 2) == 0.0

    def test_small_sigma_dominated_by_j0(self, random_field):
        # for sigma * 4 * |du|/|u| < 1 the j = 0 term wins the sup
        u = random_field
        h4 = sobolev_norm(u, 4.0)
        du = derivative(u.grid, series_coefficients(u), 1)
        ratio = sobolev_norm(du, 4.0) / h4
        sigma = 0.2 / (4.0 * ratio)
        assert hm_norm(u, sigma, 2) == pytest.approx(h4, rel=1e-12)

    def test_truncation_error_when_unresolvable(self):
        grid = make_grid(256, 2 * np.pi)
        u = planted_field(grid, np.exp(-0.05 * np.abs(fft_frequencies(grid)[1])))
        with pytest.raises(TruncationError):
            hm_norm(u, 5.0, 2, j_max=40)

    def test_invalid_params(self, random_field):
        with pytest.raises(ConfigurationError):
            hm_norm(random_field, 0.0, 2)
        with pytest.raises(ConfigurationError):
            hm_norm(random_field, 1.0, 1)

    def test_no_overflow_at_large_j_budget(self, random_field):
        value = hm_norm(random_field, 0.5, 2, j_max=200)
        assert np.isfinite(value)


class TestKatoMasuda:
    def test_m0_is_half_h2_squared(self, random_field):
        for sigma in (-1.0, 0.0, 0.7):
            expected = 0.5 * sobolev_norm(random_field, 2.0) ** 2
            assert km_phi(random_field, sigma, 0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.3])
    def test_sine_bessel_series(self, grid_2pi, sigma):
        # each |d^j sin|^2_{H^2} = 4 pi, so Phi -> 2 pi I_0(2 e^sigma)
        value = km_phi(sine(grid_2pi), sigma, 60)
        assert value == pytest.approx(2 * np.pi * i0(2 * np.exp(sigma)), rel=1e-10)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.3])
    def test_sine_bessel_series_by_direct_summation(self, grid_2pi, sigma):
        total = sum(
            np.exp(2 * sigma * j) / math.factorial(j) ** 2 * 4 * np.pi
            for j in range(40)
        )
        assert km_phi(sine(grid_2pi), sigma, 60) == pytest.approx(0.5 * total, rel=1e-10)

    def test_monotone_in_m_and_sigma(self, random_field):
        values = [km_phi(random_field, 0.1, m) for m in (0, 1, 2, 8)]
        assert values == sorted(values)
        values = [km_phi(random_field, sigma, 8) for sigma in (-1.0, 0.0, 0.5)]
        assert values == sorted(values)

    def test_zero_field(self, grid_2pi):
        assert km_phi(RealField(grid_2pi, np.zeros(64)), 0.3, 8) == 0.0

    def test_radius_norm_limit(self, grid_2pi):
        sigma = 0.2
        expected = np.sqrt(4 * np.pi * i0(2 * np.exp(sigma)))
        assert km_radius_norm(sine(grid_2pi), sigma) == pytest.approx(expected, rel=1e-10)

    def test_radius_norm_truncation_error(self):
        grid = make_grid(512, 2 * np.pi)
        u = planted_field(grid, np.exp(-0.02 * np.abs(fft_frequencies(grid)[1])))
        with pytest.raises(TruncationError):
            km_radius_norm(u, 1.5, j_max=60)

    def test_no_overflow_large_m(self, random_field):
        assert np.isfinite(km_phi(random_field, 1.0, 200))

    def test_negative_m_rejected(self, random_field):
        with pytest.raises(ConfigurationError):
            km_phi(random_field, 0.0, -1)

    @pytest.mark.filterwarnings("error")
    def test_sigma_minus_inf_is_the_h2_limit(self, random_field):
        # sigma j at j = 0 must not become -inf * 0 = NaN
        h2 = sobolev_norm(random_field, 2.0)
        assert km_phi(random_field, -math.inf, 32) == pytest.approx(0.5 * h2**2, rel=1e-14)
        assert km_radius_norm(random_field, -math.inf) == pytest.approx(h2, rel=1e-14)


class TestNonFiniteArguments:
    """NaN sigma or s and +inf sigma raise instead of printing NaN norms;
    km_phi and km_radius_norm keep sigma = -inf (TestKatoMasuda)."""

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_sobolev_s(self, random_field, s):
        with pytest.raises(ConfigurationError):
            sobolev_norm(random_field, s)

    @pytest.mark.parametrize("sigma, s", [(math.nan, 1.0), (math.inf, 1.0), (0.2, math.nan)])
    def test_gevrey(self, random_field, sigma, s):
        with pytest.raises(ConfigurationError):
            gevrey_norm(random_field, sigma, s)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_hm_sigma(self, random_field, sigma):
        with pytest.raises(ConfigurationError):
            hm_norm(random_field, sigma, 2)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_km_sigma(self, random_field, sigma):
        with pytest.raises(ConfigurationError):
            km_phi(random_field, sigma, 4)
        with pytest.raises(ConfigurationError):
            km_radius_norm(random_field, sigma)


class TestIntegerOrders:
    """m and j_max must be integers, as taylor_coeffs requires of its order: a
    float, even an integral one, or a bool raises ConfigurationError."""

    @pytest.mark.parametrize("m", [2.5, 3.0, True])
    def test_km_phi_m(self, random_field, m):
        with pytest.raises(ConfigurationError, match="m must be an integer"):
            km_phi(random_field, 0.1, m)

    @pytest.mark.parametrize("m", [2.5, 3.0])
    def test_hm_norm_m(self, random_field, m):
        with pytest.raises(ConfigurationError, match="m must be an integer"):
            hm_norm(random_field, 0.5, m)

    @pytest.mark.parametrize("j_max", [10.5, 40.0, True])
    def test_j_max(self, random_field, j_max):
        with pytest.raises(ConfigurationError, match="j_max must be an integer"):
            hm_norm(random_field, 0.5, 2, j_max)
        with pytest.raises(ConfigurationError, match="j_max must be an integer"):
            km_radius_norm(random_field, 0.1, j_max)


class TestNormAxioms:
    def test_triangle_inequality(self, grid_2pi, rng):
        u = RealField(grid_2pi, rng.standard_normal(64))
        v = RealField(grid_2pi, rng.standard_normal(64))
        w = RealField(grid_2pi, u.samples + v.samples)
        for s in (0.0, 2.0):
            assert sobolev_norm(w, s) <= sobolev_norm(u, s) + sobolev_norm(v, s) + 1e-10
        assert (
            gevrey_norm(w, 0.1, 1.0).value
            <= gevrey_norm(u, 0.1, 1.0).value + gevrey_norm(v, 0.1, 1.0).value + 1e-10
        )
        assert hm_norm(w, 0.05, 2) <= hm_norm(u, 0.05, 2) + hm_norm(v, 0.05, 2) + 1e-10

    def test_absolute_homogeneity(self, random_field):
        alpha = -2.5
        scaled = RealField(random_field.grid, alpha * random_field.samples)
        assert sobolev_norm(scaled, 1.0) == pytest.approx(
            abs(alpha) * sobolev_norm(random_field, 1.0), rel=1e-12
        )
        assert hm_norm(scaled, 0.5, 2) == pytest.approx(
            abs(alpha) * hm_norm(random_field, 0.5, 2), rel=1e-10
        )
        assert km_phi(scaled, 0.2, 8) == pytest.approx(
            alpha**2 * km_phi(random_field, 0.2, 8), rel=1e-10
        )


def _few_mode_field():
    """A grid and coefficients (FFT ordering) with modes +-1, +-2, +-3 only,
    all other coefficients exactly 0."""
    grid = make_grid(32, 2 * np.pi)
    coeffs = np.zeros(32, dtype=complex)
    for k, c in ((1, 0.5), (2, 0.3 - 0.2j), (3, 0.1 + 0.05j)):
        coeffs[k], coeffs[-k] = c, np.conj(c)
    return grid, coeffs


def _enumerated(terms, accumulate):
    """(value, stop) of the running value at the first run of three consecutive
    terms below 1e-16 of it, by direct enumeration; (None, None) if no run."""
    value, below = 0.0, 0
    for j, term in enumerate(terms):
        value = accumulate(value, term)
        below = below + 1 if term < 1e-16 * value else 0
        if below == 3:
            return value, j
    return None, None


class TestKernelOracle:
    """hm_norm, km_phi and km_radius_norm against term-by-term enumeration of
    sigma^j (j+1)^2/j! |d^j u|_{H^{2m}} and e^{2 sigma j}/(j!)^2 |d^j u|^2_{H^2},
    around the 32-order block boundary of the truncated sums."""

    grid, F = _few_mode_field()
    u = planted_field(grid, F)

    @classmethod
    def derivative_norm(cls, j, s):
        return sobolev_norm(derivative(cls.grid, cls.F, j), s)

    @classmethod
    def hm_terms(cls, sigma, m, count=80):
        return [sigma**j * (j + 1) ** 2 / math.factorial(j) * cls.derivative_norm(j, 2 * m)
                for j in range(count)]

    @classmethod
    def km_terms(cls, sigma, count=80):
        return [math.exp(2 * sigma * j) / math.factorial(j) ** 2 * cls.derivative_norm(j, 2) ** 2
                for j in range(count)]

    @pytest.mark.parametrize("sigma, first_block", [(0.5, True), (1.1, False)])
    @pytest.mark.parametrize("j_max", [31, 32, 33, 64])
    @pytest.mark.parametrize("m", [2, 3])
    def test_hm_norm(self, sigma, first_block, j_max, m):
        expected, stop = _enumerated(self.hm_terms(sigma, m), max)
        # at sigma = 1.1 the stopping run is j = 31, 32, 33, across the block boundary
        assert (stop < 31) if first_block else (stop == 33)
        if stop > j_max:
            with pytest.raises(TruncationError):
                hm_norm(self.u, sigma, m, j_max=j_max)
        else:
            assert hm_norm(self.u, sigma, m, j_max=j_max) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sigma, first_block", [(0.5, True), (1.1, False)])
    @pytest.mark.parametrize("j_max", [31, 32, 33, 64])
    def test_km_radius_norm(self, sigma, first_block, j_max):
        expected, stop = _enumerated(self.km_terms(sigma), lambda a, b: a + b)
        assert (stop < 31) if first_block else (32 < stop < 64)
        if stop > j_max:
            with pytest.raises(TruncationError):
                km_radius_norm(self.u, sigma, j_max=j_max)
        else:
            value = km_radius_norm(self.u, sigma, j_max=j_max)
            assert value == pytest.approx(math.sqrt(expected), rel=1e-12)

    @pytest.mark.parametrize("sigma", [-0.5, 0.5, 1.1])
    @pytest.mark.parametrize("m", [31, 32, 33, 64])
    def test_km_phi(self, sigma, m):
        expected = 0.5 * sum(self.km_terms(sigma, m + 1))
        assert km_phi(self.u, sigma, m) == pytest.approx(expected, rel=1e-12)


even_grids = st.tuples(
    st.integers(4, 256).map(lambda half: 2 * half),
    st.floats(0.5, 100.0),
    st.integers(0, 2**32 - 1),
)


def _white_noise(n, box_length, seed):
    """Samples with every mode, the Nyquist mode included, excited."""
    return RealField(make_grid(n, box_length), np.random.default_rng(seed).standard_normal(n))


class TestPairWeightProperties:
    """Identities over random even N, box lengths and fields; they fail if a
    half-spectrum pair weight, the Nyquist one included, is wrong."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(even_grids)
    def test_parseval(self, case):
        u = _white_noise(*case)
        expected = u.grid.box_length * np.mean(u.samples**2)
        assert sobolev_norm(u, 0.0) ** 2 == pytest.approx(expected, rel=1e-12)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(even_grids, st.sampled_from([0.0, 1.0, 2.0, 10.0, 30.0]))
    def test_gevrey_at_sigma_zero_is_sobolev(self, case, s):
        u = _white_noise(*case)
        assert gevrey_norm(u, 0.0, s).value == sobolev_norm(u, s)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(even_grids, st.floats(-2.0, 2.0))
    def test_km_phi_m0_is_half_h2_squared(self, case, sigma):
        u = _white_noise(*case)
        expected = 0.5 * sobolev_norm(u, 2.0) ** 2
        assert km_phi(u, sigma, 0) == pytest.approx(expected, rel=1e-12)


class TestNumpyKernels:
    """The module's own log-sum-exp and log j! against scipy.special, and the
    three factorial norms against their scipy formulation."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(2024)
        for _ in range(40):
            a = rng.uniform(-700.0, 700.0) + rng.standard_normal((32, int(rng.integers(1, 3000))))
            a[1] = -np.inf  # every term zero
            a[2] = -np.inf
            a[2, -1] = rng.standard_normal()  # a single finite term
            a[3, :] = a[3, 0]  # all tied at the maximum
            a[4, : a.shape[1] // 2] = a[4].max()  # half tied at the maximum
            yield a

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp

        for a in self.arrays():
            ours, ref = norms.logsumexp(a, axis=1), logsumexp(a, axis=1)
            assert ours.shape == ref.shape
            assert ours[1] == -np.inf
            finite = np.isfinite(ref)
            assert np.array_equal(finite, np.isfinite(ours))
            tol = 1e-15 * np.maximum(1.0, np.abs(ref[finite]))
            assert np.all(np.abs(ours[finite] - ref[finite]) <= tol)
            assert abs(norms.logsumexp(a[0]) - logsumexp(a[0])) <= 1e-15 * max(1.0, abs(ref[0]))

    def test_log_factorial_table_grows(self, monkeypatch):
        from scipy.special import gammaln

        monkeypatch.setattr(norms, "_log_factorials", norms._log_factorials[:10])
        j = np.arange(401)
        ours, ref = norms._log_factorial(j), gammaln(j + 1)
        assert norms._log_factorials.size >= 401
        assert np.array_equal(ours[:2], [0.0, 0.0])
        assert np.all(np.abs(ours[2:] - ref[2:]) <= 1e-15 * ref[2:])

    @staticmethod
    def scipy_log_derivative_norms(spectrum, s, j):
        from scipy.special import logsumexp, xlogy

        abs_xi, weight = spectrum
        log_terms = (np.log(weight) + s * np.log1p(abs_xi**2)) + xlogy(2.0 * j[:, None], abs_xi)
        return 0.5 * logsumexp(log_terms, axis=1)

    @staticmethod
    def scipy_spectrum(u):
        """(|xi|, L p |u_hat|^2) over the modes above the round-off floor."""
        amp = np.abs(np.fft.rfft(u.samples)) / u.grid.n_points
        pair = np.full(amp.size, 2.0)
        pair[[0, -1]] = 1.0
        above = amp > norms.ROUNDOFF_FLOOR * amp.max()
        return (np.abs(fft_frequencies(u.grid)[1][: amp.size])[above],
                u.grid.box_length * pair[above] * amp[above] ** 2)

    @classmethod
    def scipy_norms(cls, u, sigma, m):
        """(hm_norm, km_phi, km_radius_norm) with scipy's kernels in the terms."""
        from scipy.special import gammaln, logsumexp

        spectrum = cls.scipy_spectrum(u)

        def hm_terms(j):
            return (j * math.log(sigma) + 2.0 * np.log(j + 1.0) - gammaln(j + 1)
                    + cls.scipy_log_derivative_norms(spectrum, 2.0 * m, j))

        def km_terms(j):
            return 2.0 * (sigma * j - gammaln(j + 1)
                          + cls.scipy_log_derivative_norms(spectrum, 2.0, j))

        log_hm = norms._truncated_sum(hm_terms, norms.DEFAULT_J_MAX, np.maximum.accumulate)
        log_km = norms._truncated_sum(km_terms, norms.DEFAULT_J_MAX, np.logaddexp.accumulate)
        return (None if log_hm is None else math.exp(log_hm),
                0.5 * float(np.exp(logsumexp(km_terms(np.arange(33))))),
                None if log_km is None else math.exp(0.5 * log_km))

    @staticmethod
    def fields():
        rng = np.random.default_rng(7)
        for n in (16, 64, 256, 1024, 4096):
            for kind in ("sech", "sine", "noise"):
                box = float(rng.uniform(2 * np.pi, 80.0))
                grid = make_grid(n, box)
                if kind == "sech":
                    width = float(rng.uniform(0.5, 2.0))
                    samples = 1.0 / np.cosh((grid.x - box / 2) / width)
                elif kind == "sine":
                    samples = rng.uniform(0.5, 2.0) * np.sin(2 * np.pi * grid.x / box + rng.uniform(0, 6))
                else:
                    coeffs = np.zeros(n // 2 + 1, dtype=complex)
                    band = min(12, n // 4)
                    coeffs[1:band] = rng.standard_normal(band - 1) + 1j * rng.standard_normal(band - 1)
                    samples = np.fft.irfft(coeffs, n) * n
                yield RealField(grid, samples)

    @pytest.mark.parametrize("sigma, m", [(0.05, 2), (0.3, 3), (1.0, 2)])
    def test_norms_match_scipy_formulation(self, sigma, m):
        for u in self.fields():
            hm_ref, phi_ref, radius_ref = self.scipy_norms(u, sigma, m)
            for expected, norm in ((hm_ref, lambda: hm_norm(u, sigma, m)),
                                   (radius_ref, lambda: km_radius_norm(u, sigma))):
                if expected is None:
                    with pytest.raises(TruncationError):
                        norm()
                else:
                    assert norm() == pytest.approx(expected, rel=1e-13)
            assert km_phi(u, sigma, 32) == pytest.approx(phi_ref, rel=1e-13)

    @staticmethod
    def floor_readings():
        """Periodic sech readings whose modes reach down to the round-off floor,
        and white noise, whose every mode, the Nyquist mode included, is excited."""
        for n, width in ((256, 2.5), (1024, 1.0), (4096, 0.9)):
            grid = make_grid(n, 80.0)
            images = (1.0 / np.cosh((grid.x - 40.0 + shift) / width) for shift in (-80, 0, 80))
            yield RealField(grid, sum(images))
        grid = make_grid(256, 2 * np.pi)
        yield RealField(grid, np.random.default_rng(3).standard_normal(256))

    @pytest.mark.parametrize("s", [2.0, 4.0, 40.0, 2200.0])
    def test_derivative_norms_to_high_order(self, s):
        j = np.arange(201)
        for u in self.floor_readings():
            spectrum = norms._spectrum(u)
            assert spectrum.abs_xi[0] == 0
            ours = norms._log_derivative_norms(spectrum, s, j)
            ref = self.scipy_log_derivative_norms(self.scipy_spectrum(u), s, j)
            assert np.all(np.abs(ours - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
            # the sech readings drop their top modes, the noise keeps its Nyquist mode
            assert spectrum.kept[-1] == (u.grid.box_length != 80.0)

    def test_derivative_norms_of_the_zero_mode_alone(self):
        grid = make_grid(64, 10.0)
        spectrum = norms._spectrum(RealField(grid, np.full(64, -3.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_norms = norms._log_derivative_norms(spectrum, 2.0, np.arange(40))
        assert log_norms[0] == pytest.approx(0.5 * math.log(9.0 * 10.0), rel=1e-15)
        assert np.all(log_norms[1:] == -np.inf)

    def test_constant_field_no_warning(self):
        # only xi = 0 is resolved, so every order j >= 1 sums no terms
        grid = make_grid(64, 10.0)
        u = RealField(grid, np.full(64, -3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hm_norm(u, 0.5, 2) == pytest.approx(3.0 * math.sqrt(10.0), rel=1e-15)
            assert km_radius_norm(u, 0.5) == pytest.approx(3.0 * math.sqrt(10.0), rel=1e-15)
            assert km_phi(u, 0.5, 8) == pytest.approx(0.5 * 9.0 * 10.0, rel=1e-15)

    def test_import_leaves_scipy_out(self):
        src = str(Path(bfamlab.__file__).resolve().parent.parent)
        code = "import sys, bfamlab, bfamlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


def _blockwise_log_derivative_norms(spectrum, s, j):
    """norms._log_derivative_norms one 32-order block at a time: per block, one
    exp over the modes and one matrix-vector product with the reading's table."""
    log_terms = norms._log_sobolev_terms(spectrum, s)
    if spectrum.abs_xi[-1] == 0:
        return np.where(j == 0, 0.5 * log_terms[0], -np.inf)
    peak = log_terms.max()
    shifted = log_terms - peak
    sums = np.empty(j.size)
    for start in range(0, j.size, 32):
        block = sums[start:start + 32]
        lead = shifted + 2.0 * (j[0] + start) * spectrum.log_xi_ratio
        lead = np.exp(np.maximum(lead, norms._LOG_TERM_FLOOR))
        block[:] = spectrum.order_powers[:block.size] @ lead
    offset = np.longdouble(peak) + j * (2 * np.log(np.longdouble(spectrum.abs_xi[-1])))
    return 0.5 * (np.log(sums) + offset).astype(float)


def _blockwise_truncated_sum(log_terms_of, j_max, accumulate):
    """norms._truncated_sum asking for 32 orders per call."""
    running, carry = -math.inf, np.zeros(0, dtype=bool)
    for start in range(0, j_max + 1, 32):
        terms = log_terms_of(np.arange(start, min(start + 32, j_max + 1)))
        values = accumulate(np.concatenate(([running], terms)))[1:]
        small = np.concatenate((carry, terms < values + norms._LOG_TAIL))
        three = small[:-2] & small[1:-1] & small[2:]
        if three.any():
            return float(values[np.argmax(three) + 2 - carry.size])
        running, carry = values[-1], small[-2:]
    return None


def _outcome(norm, *args):
    try:
        return norm(*args)
    except TruncationError:
        return TruncationError


class TestSharedLogSumExp:
    """The Gevrey row and the Sobolev rows that `bfamlab norms` takes from one
    log-sum-exp against each public function called alone: no bit moves."""

    def test_rows_are_the_public_functions(self):
        grid = make_grid(64, 10.0)
        fields = [*TestNumpyKernels.fields(), *TestNumpyKernels.floor_readings(),
                  RealField(grid, np.full(64, -3.0)), RealField(grid, np.zeros(64))]
        for u in fields:
            for sigma in (0.0, 0.05, 0.3, 2.5, 20.0):
                for s in (0.0, 2.0, 3.5):
                    got = norms._gevrey(u, sigma, s, (0.0, s))
                    alone = (gevrey_norm(u, sigma, s), [sobolev_norm(u, 0.0), sobolev_norm(u, s)])
                    assert got == alone, (u.grid, sigma, s)


class TestOrderChunks:
    """The factorial norms, whose orders are taken 256 at a time, against a
    32-orders-per-call evaluation: below, near and past the strip of each
    reading, at order budgets on and either side of the block and chunk edges."""

    J_MAX = (1, 2, 31, 32, 33, 255, 256, 257, 1000)
    # the sech strips pi w / 2 lie in [0.78, 3.9]; on a grid every sum stops in
    # the end, at about e sigma max|xi| orders for hm, which sigma = 20 puts past 1000
    HM_SIGMA = (0.2, 1.0, 1.6, 4.0, 20.0)
    KM_SIGMA = (-0.5, 0.2, 0.5, 1.5, 20.0)  # km's terms fall off for e^sigma below the strip

    @staticmethod
    def readings():
        for u in (*TestNumpyKernels.fields(), *TestNumpyKernels.floor_readings()):
            yield norms._spectrum(u)

    def test_chunks_match_blockwise_evaluation(self, monkeypatch):
        outcomes = set()
        for spectrum in self.readings():
            for norm, sigmas, m in ((hm_norm, self.HM_SIGMA, (2,)),
                                    (km_radius_norm, self.KM_SIGMA, ()),
                                    (km_phi, self.KM_SIGMA, ())):
                for sigma in sigmas:
                    truncated = []
                    for j_max in self.J_MAX:  # m for km_phi
                        args = (spectrum, sigma, *m, j_max)
                        with monkeypatch.context() as patch:
                            patch.setattr(norms, "_log_derivative_norms",
                                          _blockwise_log_derivative_norms)
                            patch.setattr(norms, "_truncated_sum", _blockwise_truncated_sum)
                            expected = _outcome(norm, *args)
                        value = _outcome(norm, *args)
                        where = (norm.__name__, sigma, j_max)
                        if expected is TruncationError:
                            assert value is TruncationError, where
                        else:
                            assert value is not TruncationError, where
                            assert value == pytest.approx(expected, rel=1e-15, abs=0.0), where
                        truncated.append(value is TruncationError)
                    outcomes.add((truncated[-3], truncated[-1]))  # j_max = 256, 1000
        # the cases reach every outcome: a stop in the first chunk, a stop carried
        # across a chunk edge (unresolved at j_max = 256, resolved by 1000), and none
        assert outcomes == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("name, sigma, stop", [("hm", 46.5, 257), ("km", 4.05, 256)])
    def test_stopping_run_across_the_chunk_edge(self, name, sigma, stop):
        # on the few-mode field the first three small terms straddle orders 255 and 256,
        # so the stop needs the running value and the small-term flags carried over
        grid, coeffs, u = TestKernelOracle.grid, TestKernelOracle.F, TestKernelOracle.u
        j = np.arange(300)
        s = 4.0 if name == "hm" else 2.0
        # |d^j u|^2_{H^s} = L sum over k = +-1, +-2, +-3 of (1 + k^2)^s k^{2j} |c_k|^2 (xi = k)
        k = np.arange(1, 4)
        log_modes = np.log(2 * grid.box_length * np.abs(coeffs[k]) ** 2) + s * np.log1p(k**2.0)
        log_modes = log_modes + 2.0 * np.multiply.outer(j, np.log(k))
        log_norms = 0.5 * np.logaddexp.reduce(log_modes, axis=1)
        log_factorials = np.array([math.lgamma(i + 1.0) for i in j])
        if name == "hm":
            log_terms = j * math.log(sigma) + 2.0 * np.log(j + 1.0) - log_factorials + log_norms
            power, accumulate = 1.0, max
            norm = lambda j_max: hm_norm(u, sigma, 2, j_max)  # noqa: E731
        else:
            log_terms = 2.0 * (sigma * j - log_factorials + log_norms)
            power, accumulate = 0.5, lambda a, b: a + b
            norm = lambda j_max: km_radius_norm(u, sigma, j_max)  # noqa: E731
        shift = log_terms.max()
        scaled, found = _enumerated(np.exp(log_terms - shift), accumulate)
        assert found == stop
        with pytest.raises(TruncationError):
            norm(stop - 1)
        expected = math.exp(power * (math.log(scaled) + shift))
        for j_max in (stop, 299):
            assert norm(j_max) == pytest.approx(expected, rel=1e-12)

    def test_memory_bounded_by_the_chunk(self):
        grid = make_grid(1024, 80.0)
        spectrum = norms._spectrum(RealField(grid, 1.0 / np.cosh(grid.x - 40.0)))
        # built once per reading and per process, not per order
        spectrum.order_powers
        norms._log_factorial(np.array([100_000]))

        def peak_bytes(j_max):
            tracemalloc.start()
            try:
                # at sigma = 20 the sum cannot stop by any of these budgets
                with pytest.raises(TruncationError):
                    km_radius_norm(spectrum, 20.0, j_max=j_max)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(100_000) < 1.5 * peak_bytes(1000)

    def test_log_factorial_growth_appends(self, monkeypatch):
        # from the default table, a sum that cannot stop doubles the log j! table
        # nine times on its way to j = 100 000; each growth computes only the new
        # entries and appends them, so the peak stays near twice the final
        # table's 0.8 MB (a rebuild through a Python list peaked at 4.6 MB)
        grid = make_grid(1024, 80.0)
        spectrum = norms._spectrum(RealField(grid, 1.0 / np.cosh(grid.x - 40.0)))
        spectrum.order_powers
        monkeypatch.setattr(norms, "_log_factorials",
                            norms._log_factorials[: norms.DEFAULT_J_MAX + 1].copy())
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError):
                km_radius_norm(spectrum, 20.0, j_max=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000
        table = norms._log_factorials
        assert table.size > 100_000
        for k in (0, 1, 2, 200, 201, 202, 401, 402, 12_345, 99_999, table.size - 1):
            assert table[k] == math.lgamma(k + 1.0), k

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(even_grids)
    def test_abs_xi_without_the_full_grid(self, case):
        u = _white_noise(*case)
        spectrum = norms._spectrum(u)
        assert u.grid.xi.shape == (u.grid.n_points // 2 + 1,)
        # the bytes of the full FFT-ordered |xi| on the half spectrum's modes
        full = np.abs(fft_frequencies(u.grid)[1][: u.grid.xi.size])
        assert spectrum.abs_xi.tobytes() == full[spectrum.kept].tobytes()
