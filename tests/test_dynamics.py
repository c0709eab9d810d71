"""The b-family right-hand side, the momentum map, and monitored functionals."""

import warnings

import numpy as np
import pytest

from bfamlab import (
    RealField,
    inverse_momentum,
    make_grid,
    momentum,
    rhs_F,
    sobolev_norm,
)
from bfamlab.scenarios import _sample_columns
from bfamlab.dynamics import _Operator, _rhs_from_products
from bfamlab.taylor import _recursion
from conftest import (
    conservative_band,
    conservative_rhs,
    derivative,
    fft_band,
    fft_frequencies,
    reference_derivative,
    reference_march,
    series_coefficients,
)


def functional(name, u):
    """The diagnostics column `name` of the state u alone, from the one
    implementation of the columns; the decay fit's warnings are not under
    test here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(_sample_columns([u], 4)[name][0])


def h1_energy(u):
    """The integral of u^2 + u_x^2, by the README's one-liner for the removed
    `dynamics.h1_energy`."""
    return sobolev_norm(u, 1.0) ** 2


class TestRhs:
    def test_zero_field(self, grid_2pi):
        out = rhs_F(RealField(grid_2pi, np.zeros(64)), b=2.0)
        assert np.max(np.abs(out.samples)) == 0.0

    def test_constant_field(self, grid_2pi):
        out = rhs_F(RealField(grid_2pi, np.full(64, 3.7)), b=2.0)
        assert np.max(np.abs(out.samples)) < 1e-13

    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0, 5.5])
    def test_sine_closed_form(self, b):
        # two-mode closed form: F(sin x) = -((1+b)/5) sin 2x
        grid = make_grid(128, 2 * np.pi)
        out = rhs_F(RealField(grid, np.sin(grid.x)), b)
        expected = -((1.0 + b) / 5.0) * np.sin(2 * grid.x)
        assert np.max(np.abs(out.samples - expected)) < 1e-12

    def test_sine_closed_form_against_quadrature(self):
        # independent oracle: assemble the nonlocal term by dense quadrature
        # of the Helmholtz kernel against the closed-form integrand
        b = 2.0
        grid = make_grid(128, 2 * np.pi)
        u = np.sin(grid.x)
        ux = np.cos(grid.x)
        q = 0.5 * b * u**2 + 0.5 * (3.0 - b) * ux**2
        # q = const + ((3-2b)/4) cos 2x; apply multiplier -xi/(1+xi^2) at xi=2
        amp = (3.0 - 2.0 * b) / 4.0
        nonlocal_term = amp * (-2.0 / 5.0) * np.sin(2 * grid.x)
        expected = -u * ux - nonlocal_term
        out = rhs_F(RealField(grid, u), b)
        assert np.max(np.abs(out.samples - expected)) < 1e-12
        q_hat = series_coefficients(RealField(grid, q))
        rebuilt = derivative(grid, q_hat / (1.0 + fft_frequencies(grid)[1] ** 2), 1).samples
        assert np.max(np.abs(rebuilt - nonlocal_term)) < 1e-13

    @pytest.mark.parametrize("alpha", [-2.0, 0.5, 3.0])
    def test_quadratic_scaling(self, random_field, alpha):
        b = 1.3
        scaled = RealField(random_field.grid, alpha * random_field.samples)
        lhs = rhs_F(scaled, b).samples
        rhs = alpha**2 * rhs_F(random_field, b).samples
        scale = np.max(np.abs(rhs)) or 1.0
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12

    def test_b3_drops_gradient_term(self, random_field):
        # at b = 3 the u_x^2 contribution vanishes; assemble the reduced form
        # independently with raw numpy transforms
        grid = random_field.grid
        n = grid.n_points
        us = random_field.samples
        xi = fft_frequencies(grid)[1]
        u_hat = np.fft.fft(us) / n
        ux = (np.fft.ifft(1j * xi * u_hat) * n).real
        keep = fft_band(grid)
        adv_hat = np.where(keep, np.fft.fft(us * ux) / n, 0.0)
        q_hat = np.where(keep, np.fft.fft(1.5 * us * us) / n, 0.0)
        nonlocal_hat = 1j * xi * q_hat / (1.0 + xi**2)
        independent = -(np.fft.ifft(adv_hat + nonlocal_hat) * n).real
        out = rhs_F(random_field, 3.0)
        scale = max(np.max(np.abs(independent)), 1.0)
        assert np.max(np.abs(out.samples - independent)) / scale < 1e-14

    def test_sine_steady_at_b_minus_one(self, grid_2pi):
        out = rhs_F(RealField(grid_2pi, np.sin(grid_2pi.x)), -1.0)
        assert np.max(np.abs(out.samples)) < 1e-12


class TestCombine:
    """The combine and rhs_F against a conservative-form RHS of numpy.fft alone."""

    B_VALUES = [-1.0, 0.0, 2.0, 3.0]

    @staticmethod
    def squares(u, box_length):
        ux = reference_derivative(u, box_length)
        return np.array([u * u, ux * ux])

    @pytest.mark.parametrize("b", B_VALUES)
    def test_band_matches_reference(self, random_field, b):
        # the operator takes the rows it holds, [u^2] alone at b = 3; the
        # reference takes both squares at every b
        grid = random_field.grid
        squares = self.squares(random_field.samples, grid.box_length)
        band = np.empty(grid.band_size, dtype=complex)
        op = _Operator(random_field, b)
        _rhs_from_products(op, squares[: len(op.squares)], band)
        expected = conservative_band(*squares, b, grid.box_length)
        assert np.max(np.abs(band - expected[: grid.band_size])) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("b", B_VALUES)
    def test_rhs_matches_reference(self, random_field, b):
        grid = random_field.grid
        expected = conservative_rhs(random_field.samples, b, grid.box_length)
        got = rhs_F(random_field, b).samples
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("b", B_VALUES)
    def test_caller_band_storage(self, random_field, b):
        grid = random_field.grid
        m = grid.band_size
        squares = self.squares(random_field.samples, grid.box_length)
        op = _Operator(random_field, b)
        band = np.empty(m, dtype=complex)
        assert _rhs_from_products(op, squares[: len(op.squares)], band) is band
        spectra = np.fft.rfft(squares)
        expected = op.A * spectra[0, :m]
        if op.B is not None:
            expected = expected + op.B * spectra[1, :m]
        assert band.tobytes() == expected.tobytes()
        # rhs_F is the irfft of -band
        n = grid.n_points
        assert np.array_equal(np.fft.irfft(-band, n), rhs_F(random_field, b).samples)

    @pytest.mark.parametrize("b", [-1.0, 0.0, 0.8, 2.0, 3.0, 5.5])
    def test_mean_entry_is_exactly_zero(self, random_field, b):
        # i xi_0 = 0, so both multipliers vanish at k = 0 and the band's mean
        # entry is zero whatever the squares
        grid = random_field.grid
        op = _Operator(random_field, b)
        assert op.A[0] == 0.0 and (op.B is None or op.B[0] == 0.0)
        squares = self.squares(random_field.samples + 2.5, grid.box_length)
        band = np.empty(grid.band_size, dtype=complex)
        assert _rhs_from_products(op, squares[: len(op.squares)], band)[0] == 0.0

    @pytest.mark.parametrize("b", [-1.0, 2.0, 3.0])
    def test_march_keeps_mean_mode(self, random_field, b):
        # the datum's mean is round-off, so any increment of the mean mode
        # would show; the returned samples add one irfft's round-off
        u = RealField(random_field.grid, 0.1 * random_field.samples)
        out = reference_march(u, b, 0.05, 50)
        assert abs(np.mean(out) - np.mean(u.samples)) <= 1e-15 * np.max(np.abs(u.samples))
        assert np.max(np.abs(out - u.samples)) > 1e-6


class TestRowCount:
    """At b = 3 the u_x^2 multiplier B is zero and the operator holds one row."""

    @pytest.mark.parametrize("b", [2.0, np.nextafter(3.0, 2.0), np.nextafter(3.0, 4.0)])
    def test_two_rows_away_from_b3(self, random_field, b):
        op = _Operator(random_field, b)
        n = random_field.grid.n_points
        assert op.B is not None
        assert op.fields.shape == op.squares.shape == (2, n)
        assert op.spectra.shape == op.product_spectra.shape == (2, n // 2 + 1)

    @pytest.mark.parametrize("b", [3.0, 3, np.float64(3.0)], ids=["float", "int", "float64"])
    def test_one_row_at_b3(self, random_field, b):
        op = _Operator(random_field, b)
        n = random_field.grid.n_points
        assert op.B is None
        assert op.fields.shape == op.squares.shape == (1, n)
        assert op.spectra.shape == op.product_spectra.shape == (1, n // 2 + 1)
        assert op.fields[0].tobytes() == random_field.samples.tobytes()
        # load refreshes u alone from the stage
        op.stage[:] = np.fft.rfft(2.0 * random_field.samples)[: random_field.grid.band_size]
        np.testing.assert_allclose(op.load(op.fields)[0], 2.0 * random_field.samples, rtol=0, atol=1e-13)

    def test_rhs_next_to_b3_agrees_with_b3(self, random_field):
        # the smallest b above 3 keeps the u_x^2 row, whose multiplier is
        # then about 1e-16: F moves by round-off only
        b = np.nextafter(3.0, 4.0)
        assert _Operator(random_field, b).B is not None
        at_b3 = rhs_F(random_field, 3.0).samples
        gap = np.max(np.abs(rhs_F(random_field, b).samples - at_b3))
        assert gap <= 1e-14 * np.max(np.abs(at_b3))

    def test_band_equals_the_two_row_formula(self, random_field):
        # the one-row combine is the two-row one, with B formed at b = 3,
        # value for value
        grid, b = random_field.grid, 3.0
        m = grid.band_size
        op = _Operator(random_field, b)
        squares = TestCombine.squares(random_field.samples, grid.box_length)
        band = _rhs_from_products(op, squares[:1], np.empty(m, dtype=complex))
        spectra = np.fft.rfft(squares)
        nonlocal_ = grid.half_deriv_multiplier[:m] * grid.helmholtz_inv_multiplier[:m]
        B = (0.5 * (3.0 - b)) * nonlocal_
        assert np.array_equal(band, op.A * spectra[0, :m] + B * spectra[1, :m])


class TestReset:
    @pytest.mark.parametrize("b", [-1.0, 2.0, 3.0])
    def test_reset_matches_a_fresh_build(self, random_field, b):
        # an operator that has served a recursion, reset to another datum,
        # holds what an operator built from that datum holds
        op = _Operator(random_field, b)
        _recursion(op, np.empty((6,) + op.fields.shape))
        v = RealField(random_field.grid, 0.5 * random_field.samples[::-1] + 0.25)
        op.reset(v.samples)
        fresh = _Operator(v, b)
        assert op.spectra.tobytes() == fresh.spectra.tobytes()
        assert op.fields.tobytes() == fresh.fields.tobytes()


class TestMomentum:
    def test_sine_doubles(self, grid_2pi):
        m = momentum(RealField(grid_2pi, np.sin(grid_2pi.x)))
        assert np.max(np.abs(m.samples - 2 * np.sin(grid_2pi.x))) < 1e-12

    def test_constant_unchanged(self, grid_2pi):
        m = momentum(RealField(grid_2pi, np.ones(64)))
        assert np.max(np.abs(m.samples - 1.0)) < 1e-14

    def test_round_trip(self, random_field):
        g = momentum(inverse_momentum(random_field))
        assert np.max(np.abs(g.samples - random_field.samples)) < 1e-12

    def test_round_trip_other_way(self, random_field):
        g = inverse_momentum(momentum(random_field))
        assert np.max(np.abs(g.samples - random_field.samples)) < 1e-12

    def test_positive_momentum_gives_positive_field(self):
        # convolution with the positive kernel e^{-|x|}/2 preserves sign
        grid = make_grid(512, 80.0)
        bump = np.exp(-(((grid.x - 40.0) / 3.0) ** 2))
        u = inverse_momentum(RealField(grid, bump))
        assert np.all(u.samples > 0)

    def test_zero_momentum(self, grid_2pi):
        u = inverse_momentum(RealField(grid_2pi, np.zeros(64)))
        assert np.max(np.abs(u.samples)) == 0.0


class TestFunctionals:
    def test_mean_of_sine_vanishes(self, grid_2pi):
        assert abs(functional("mean_u", RealField(grid_2pi, np.sin(grid_2pi.x)))) < 1e-14

    def test_mean_of_constant(self, grid_2pi):
        value = functional("mean_u", RealField(grid_2pi, np.ones(64)))
        assert value == pytest.approx(2 * np.pi, abs=1e-13)

    def test_mean_matches_trapezoid(self, random_field):
        grid = random_field.grid
        wrapped = np.concatenate([random_field.samples, random_field.samples[:1]])
        oracle = np.trapezoid(wrapped, dx=grid.dx)
        assert abs(functional("mean_u", random_field) - oracle) < 1e-12

    def test_h1_energy_of_sine(self, grid_2pi):
        value = h1_energy(RealField(grid_2pi, np.sin(grid_2pi.x)))
        assert value == pytest.approx(2 * np.pi, rel=1e-13)

    def test_h1_energy_of_zero(self, grid_2pi):
        assert h1_energy(RealField(grid_2pi, np.zeros(64))) == 0.0

    def test_h1_energy_of_constant(self, grid_2pi):
        value = h1_energy(RealField(grid_2pi, np.ones(64)))
        assert value == pytest.approx(2 * np.pi, rel=1e-13)

    def test_h1_energy_matches_quadrature(self, random_field):
        grid = random_field.grid
        ux = derivative(grid, series_coefficients(random_field), 1).samples
        integrand = random_field.samples**2 + ux**2
        wrapped = np.concatenate([integrand, integrand[:1]])
        oracle = np.trapezoid(wrapped, dx=grid.dx)
        assert h1_energy(random_field) == pytest.approx(oracle, rel=1e-10)

    def test_momentum_l1_of_sine(self):
        # integral of |2 sin| over the box is 8; trapezoid error is O(dx^2)
        grid = make_grid(2048, 2 * np.pi)
        value = functional("m_l1", RealField(grid, np.sin(grid.x)))
        assert value == pytest.approx(8.0, abs=1e-4)

    def test_momentum_l1_matches_trapezoid(self, random_field):
        m = momentum(random_field).samples
        wrapped = np.concatenate([np.abs(m), np.abs(m[:1])])
        oracle = np.trapezoid(wrapped, dx=random_field.grid.dx)
        assert functional("m_l1", random_field) == pytest.approx(oracle, rel=1e-12)

    def test_momentum_min_of_sine(self):
        grid = make_grid(2048, 2 * np.pi)
        value = functional("m_min", RealField(grid, np.sin(grid.x)))
        assert value == pytest.approx(-2.0, abs=1e-9)

    def test_sign_certificate_by_construction(self):
        grid = make_grid(512, 80.0)
        bump = np.exp(-(((grid.x - 40.0) / 3.0) ** 2))
        u = inverse_momentum(RealField(grid, bump))
        assert functional("m_min", u) >= -1e-12

    def test_zero_field_functionals(self, grid_2pi):
        zero = RealField(grid_2pi, np.zeros(64))
        assert functional("m_l1", zero) == 0.0
        assert functional("m_min", zero) == 0.0

    def test_l2_consistency(self, grid_2pi):
        u = RealField(grid_2pi, np.sin(grid_2pi.x))
        assert sobolev_norm(u, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
