"""Transforms, spectral derivatives, the Helmholtz inverse, and dealiasing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfamlab import (
    ConfigurationError,
    NumericalError,
    RealField,
    SpectralField,
    dealias,
    deriv,
    dft,
    helmholtz,
    helmholtz_inv,
    idft,
    make_grid,
)
from bfamlab.grid import _irfft, _rfft


class TestMakeGrid:
    def test_unit_frequencies_on_2pi_box(self):
        grid = make_grid(256, 2 * np.pi)
        assert np.allclose(grid.xi, grid.modes)
        assert grid.xi[1] == pytest.approx(1.0)

    def test_frequency_scaling(self):
        grid = make_grid(8, 1.0)
        assert grid.xi[1] == pytest.approx(2 * np.pi)

    @pytest.mark.parametrize("n", [7, 9, 255])
    def test_odd_n_rejected(self, n):
        with pytest.raises(ConfigurationError):
            make_grid(n, 2 * np.pi)

    def test_too_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid(6, 2 * np.pi)

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_nonpositive_length_rejected(self, length):
        with pytest.raises(ConfigurationError):
            make_grid(64, length)

    def test_default_dealias_fraction(self):
        assert make_grid(64, 1.0).dealias_fraction == pytest.approx(2.0 / 3.0)


class TestTransforms:
    def test_cosine_coefficients(self):
        grid = make_grid(64, 2 * np.pi)
        F = dft(RealField(grid, np.cos(grid.x)))
        assert abs(F.coeff(1) - 0.5) < 1e-14
        assert abs(F.coeff(-1) - 0.5) < 1e-14
        others = np.abs(F.coeffs[2:-1])
        assert np.max(others) < 1e-14

    def test_constant_field(self):
        grid = make_grid(64, 2 * np.pi)
        F = dft(RealField(grid, np.ones(64)))
        assert abs(F.coeff(0) - 1.0) < 1e-15
        assert np.max(np.abs(F.coeffs[1:])) < 1e-15

    def test_round_trip_random(self, rng):
        grid = make_grid(128, 5.0)
        f = RealField(grid, rng.standard_normal(128))
        back = idft(dft(f))
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12

    def test_parseval_matches_trapezoid(self, random_field):
        grid = random_field.grid
        F = dft(random_field)
        spectral = grid.box_length * np.sum(np.abs(F.coeffs) ** 2)
        wrapped = np.concatenate([random_field.samples, random_field.samples[:1]])
        physical = np.trapezoid(wrapped**2, dx=grid.dx)
        assert abs(spectral - physical) / spectral < 1e-10

    def test_hermitian_symmetry(self, random_field):
        F = dft(random_field)
        n = F.grid.n_points
        for k in range(1, n // 2):
            assert F.coeff(-k) == pytest.approx(np.conj(F.coeff(k)), abs=1e-15)

    def test_nonfinite_input_rejected(self):
        grid = make_grid(8, 1.0)
        bad = np.ones(8)
        bad[3] = np.nan
        with pytest.raises(NumericalError):
            RealField(grid, bad)


class TestDeriv:
    def test_sin_to_cos(self):
        grid = make_grid(64, 2 * np.pi)
        F = deriv(dft(RealField(grid, np.sin(grid.x))), 1)
        assert np.max(np.abs(idft(F).samples - np.cos(grid.x))) < 1e-13

    def test_order_zero_is_identity(self, random_field):
        F = dft(random_field)
        assert np.array_equal(deriv(F, 0).coeffs, F.coeffs)

    def test_second_derivative_of_sin(self):
        # round-off floor of the input spectrum is amplified by xi^2
        grid = make_grid(64, 2 * np.pi)
        F = deriv(dft(RealField(grid, np.sin(grid.x))), 2)
        assert np.max(np.abs(idft(F).samples + np.sin(grid.x))) < 1e-12

    def test_negative_order_rejected(self, random_field):
        with pytest.raises(ConfigurationError):
            deriv(dft(random_field), -1)

    def test_nyquist_zeroed_for_odd_orders(self):
        grid = make_grid(16, 2 * np.pi)
        coeffs = np.zeros(16, dtype=complex)
        coeffs[8] = 1.0  # k = -N/2
        F = SpectralField(grid, coeffs)
        assert deriv(F, 1).coeffs[8] == 0.0
        assert deriv(F, 2).coeffs[8] != 0.0

    def test_linearity(self, random_field, rng):
        grid = random_field.grid
        g = RealField(grid, rng.standard_normal(grid.n_points))
        lhs = deriv(dft(RealField(grid, 2.0 * random_field.samples + g.samples)), 1)
        rhs = 2.0 * deriv(dft(random_field), 1).coeffs + deriv(dft(g), 1).coeffs
        assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12


class TestHelmholtzInv:
    def test_cos_2x(self):
        grid = make_grid(64, 2 * np.pi)
        out = idft(helmholtz_inv(dft(RealField(grid, np.cos(2 * grid.x)))))
        assert np.max(np.abs(out.samples - np.cos(2 * grid.x) / 5.0)) < 1e-14

    def test_constant_untouched(self):
        grid = make_grid(64, 2 * np.pi)
        out = idft(helmholtz_inv(dft(RealField(grid, np.ones(64)))))
        assert np.max(np.abs(out.samples - 1.0)) < 1e-14

    def test_inverse_of_forward_operator(self, random_field):
        F = dft(random_field)
        back = helmholtz_inv(helmholtz(F))
        assert np.max(np.abs(back.coeffs - F.coeffs)) < 1e-13

    def test_forward_via_derivatives(self, random_field):
        # (1 - d^2/dx^2) u computed with deriv, then inverted
        F = dft(random_field)
        forward = SpectralField(F.grid, F.coeffs - deriv(F, 2).coeffs)
        back = helmholtz_inv(forward)
        assert np.max(np.abs(idft(back).samples - random_field.samples)) < 1e-13

    def test_commutes_with_deriv(self, random_field):
        F = dft(random_field)
        a = deriv(helmholtz_inv(F), 1)
        b = helmholtz_inv(deriv(F, 1))
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15

    def test_linearity(self, random_field, rng):
        grid = random_field.grid
        g = RealField(grid, rng.standard_normal(grid.n_points))
        combined = RealField(grid, 3.0 * random_field.samples - 0.5 * g.samples)
        lhs = helmholtz_inv(dft(combined)).coeffs
        rhs = 3.0 * helmholtz_inv(dft(random_field)).coeffs - 0.5 * helmholtz_inv(dft(g)).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestDealias:
    def test_cutoff_arithmetic_n16(self):
        grid = make_grid(16, 2 * np.pi)
        F = SpectralField(grid, np.ones(16, dtype=complex))
        out = dealias(F)
        kept = {int(k) for k, c in zip(grid.modes, out.coeffs) if c != 0}
        assert kept == set(range(-5, 6))

    def test_band_limited_unchanged(self):
        grid = make_grid(16, 2 * np.pi)
        coeffs = np.zeros(16, dtype=complex)
        for k in range(-5, 6):
            coeffs[k % 16] = 1.0 + 0.5j
        F = SpectralField(grid, coeffs)
        assert np.array_equal(dealias(F).coeffs, F.coeffs)

    def test_aliased_product_removed(self):
        # sin(5x)^2 = 1/2 - cos(10x)/2; on N=16 mode 10 aliases onto -6
        coarse = make_grid(16, 2 * np.pi)
        f = np.sin(5 * coarse.x)
        product = dealias(dft(RealField(coarse, f * f)))
        fine = make_grid(64, 2 * np.pi)
        f_fine = np.sin(5 * fine.x)
        reference = dft(RealField(fine, f_fine * f_fine))
        for k in range(-5, 6):
            assert abs(product.coeff(k) - reference.coeff(k)) < 1e-14


class TestHalfSpectrum:
    @pytest.mark.parametrize("fraction, band", [(2.0 / 3.0, 6), (0.5, 5), (1.0, 9)])
    def test_band_size_n16(self, fraction, band):
        # 2/3 of N/2 = 8 keeps k = 0..5; fraction 1 keeps the Nyquist mode too
        assert make_grid(16, 2 * np.pi, fraction).band_size == band

    def test_multipliers_match_full_spectrum_operators(self, random_field):
        grid = random_field.grid
        half = grid.n_points // 2 + 1
        m = grid.band_size
        u_hat = np.fft.rfft(random_field.samples) / grid.n_points
        assert grid.half_deriv_multiplier[-1] == 0.0
        expected_deriv = deriv(dft(random_field), 1).coeffs[:half]
        assert np.allclose(grid.half_deriv_multiplier * u_hat, expected_deriv, rtol=0, atol=1e-13)
        expected_nonlocal = deriv(helmholtz_inv(dft(random_field)), 1).coeffs[:m]
        assert np.allclose(grid.band_nonlocal_multiplier * u_hat[:m], expected_nonlocal, rtol=0, atol=1e-14)


random_grids = st.tuples(
    st.integers(4, 256).map(lambda half: 2 * half),
    st.floats(0.5, 100.0),
    st.integers(0, 2**32 - 1),
)


def _noise(n, box_length, seed):
    """White-noise samples, every mode the Nyquist one included excited."""
    return RealField(make_grid(n, box_length), np.random.default_rng(seed).standard_normal(n))


class TestTransformProperties:
    """The transforms on random even N in [8, 512] and box lengths in [0.5, 100]."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(random_grids)
    def test_round_trip(self, case):
        u = _noise(*case)
        error = np.max(np.abs(idft(dft(u)).samples - u.samples))
        assert error <= 1e-14 * np.max(np.abs(u.samples))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(random_grids)
    def test_helmholtz_inverse(self, case):
        F = dft(_noise(*case))
        error = np.max(np.abs(helmholtz_inv(helmholtz(F)).coeffs - F.coeffs))
        assert error <= 1e-14 * np.max(np.abs(F.coeffs))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(random_grids)
    def test_derivative_of_a_sine(self, case):
        n, box_length, seed = case
        grid = make_grid(n, box_length)
        q = 1 + seed % (n // 2 - 1)  # every mode below Nyquist
        phase = (2.0 * np.pi * q / n) * np.arange(n)
        xi_q = 2.0 * np.pi * q / box_length
        du = idft(deriv(dft(RealField(grid, np.sin(phase))), 1)).samples
        assert np.max(np.abs(du - xi_q * np.cos(phase))) <= 1e-12 * xi_q

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(random_grids)
    def test_half_multiplier_is_the_full_derivative(self, case):
        F = dft(_noise(*case))
        half = F.grid.n_points // 2 + 1
        np.testing.assert_array_equal(
            F.grid.half_deriv_multiplier * F.coeffs[:half], deriv(F, 1).coeffs[:half]
        )


kernel_cases = st.tuples(
    st.integers(4, 2048).map(lambda half: 2 * half),
    st.sampled_from([(), (2,), (3,)]),
    st.integers(0, 2**32 - 1),
)


class TestRealTransformKernels:
    """The grid's kernels give the bytes of numpy.fft.rfft / irfft exactly, on
    random even N in [8, 4096] and shapes (N,), (2, N) and (3, N).

    They call private numpy kernels, so a numpy upgrade that changes those
    fails here instead of letting results drift.
    """

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(kernel_cases)
    def test_rfft_is_numpy_rfft(self, case):
        n, rows, seed = case
        samples = np.random.default_rng(seed).standard_normal(rows + (n,))
        out = np.empty(rows + (n // 2 + 1,), dtype=complex)
        assert _rfft(samples, out) is out
        assert out.tobytes() == np.fft.rfft(samples).tobytes()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(kernel_cases, st.booleans())
    def test_irfft_is_numpy_irfft(self, case, band_only):
        n, rows, seed = case
        rng = np.random.default_rng(seed)
        # a dealiased band, shorter than N/2 + 1, is zero-padded as numpy.fft does
        modes = make_grid(n, 1.0).band_size if band_only else n // 2 + 1
        spectrum = rng.standard_normal(rows + (modes,)) + 1j * rng.standard_normal(rows + (modes,))
        out = np.empty(rows + (n,))
        assert _irfft(spectrum, out) is out
        assert out.tobytes() == np.fft.irfft(spectrum, n).tobytes()
