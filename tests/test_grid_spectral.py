"""The grid, its real transforms and half-spectrum multipliers: series
coefficients, the spectral derivative, the Helmholtz inverse, and the band cut."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfamlab import (
    ConfigurationError,
    EvolveConfig,
    NumericalError,
    RealField,
    evolve,
    inverse_momentum,
    make_grid,
    momentum,
    sobolev_norm,
)
from bfamlab.grid import _irfft, _rfft
from conftest import (
    derivative,
    fft_band,
    fft_frequencies,
    planted_field,
    reference_march,
    reference_wavenumbers,
    series_coefficients,
)


class TestMakeGrid:
    def test_unit_frequencies_on_2pi_box(self):
        grid = make_grid(256, 2 * np.pi)
        assert grid.xi.shape == grid.helmholtz_inv_multiplier.shape == (129,)
        assert np.allclose(grid.xi, np.arange(129))
        assert grid.xi[1] == pytest.approx(1.0)

    def test_frequency_scaling(self):
        grid = make_grid(8, 1.0)
        assert grid.xi[1] == pytest.approx(2 * np.pi)

    @pytest.mark.parametrize("n", [7, 9, 255])
    def test_odd_n_rejected(self, n):
        with pytest.raises(ConfigurationError):
            make_grid(n, 2 * np.pi)

    @pytest.mark.parametrize("n", [64.0, 64.5, "64"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ConfigurationError, match="even integer"):
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


def half_spectrum(u):
    """Series coefficients u_hat[k], k = 0 .. N/2, from the grid's rfft kernel."""
    n = u.grid.n_points
    return _rfft(u.samples, np.empty(n // 2 + 1, dtype=complex)) / n


def half_derivative(u):
    """u_x as the package takes it: the half spectrum times grid.half_deriv_multiplier."""
    n = u.grid.n_points
    spectrum = _rfft(u.samples, np.empty(n // 2 + 1, dtype=complex))
    return RealField(u.grid, _irfft(u.grid.half_deriv_multiplier * spectrum, np.empty(n)))


def helmholtz_pair(u):
    """The half spectrum of u and its image under 1 + xi^2 and then the grid's
    helmholtz_inv_multiplier, which should give it back."""
    u_hat = half_spectrum(u)
    grid = u.grid
    return u_hat, (u_hat * (1.0 + grid.xi**2)) * grid.helmholtz_inv_multiplier


class TestTransforms:
    def test_cosine_coefficients(self):
        grid = make_grid(64, 2 * np.pi)
        u_hat = half_spectrum(RealField(grid, np.cos(grid.x)))
        assert abs(u_hat[1] - 0.5) < 1e-14
        assert abs(u_hat[0]) < 1e-14
        assert np.max(np.abs(u_hat[2:])) < 1e-14

    def test_constant_field(self):
        grid = make_grid(64, 2 * np.pi)
        u_hat = half_spectrum(RealField(grid, np.ones(64)))
        assert abs(u_hat[0] - 1.0) < 1e-15
        assert np.max(np.abs(u_hat[1:])) < 1e-15

    def test_round_trip_random(self, rng):
        grid = make_grid(128, 5.0)
        f = RealField(grid, rng.standard_normal(128))
        back = _irfft(_rfft(f.samples, np.empty(65, dtype=complex)), np.empty(128))
        assert np.max(np.abs(back - f.samples)) < 1e-12

    def test_parseval_matches_trapezoid(self, random_field):
        # the conjugate modes +-k enter the half spectrum once, with pair weight 2
        grid = random_field.grid
        u_hat = half_spectrum(random_field)
        pair = np.full(u_hat.size, 2.0)
        pair[[0, -1]] = 1.0
        spectral = grid.box_length * np.sum(pair * np.abs(u_hat) ** 2)
        wrapped = np.concatenate([random_field.samples, random_field.samples[:1]])
        physical = np.trapezoid(wrapped**2, dx=grid.dx)
        assert abs(spectral - physical) / spectral < 1e-10

    def test_nonfinite_input_rejected(self):
        grid = make_grid(8, 1.0)
        bad = np.ones(8)
        bad[3] = np.nan
        with pytest.raises(NumericalError):
            RealField(grid, bad)


class TestDeriv:
    def test_sin_to_cos(self):
        grid = make_grid(64, 2 * np.pi)
        du = half_derivative(RealField(grid, np.sin(grid.x)))
        assert np.max(np.abs(du.samples - np.cos(grid.x))) < 1e-13

    def test_second_derivative_of_sin(self):
        # round-off floor of the input spectrum is amplified by xi^2
        grid = make_grid(64, 2 * np.pi)
        d2u = half_derivative(half_derivative(RealField(grid, np.sin(grid.x))))
        assert np.max(np.abs(d2u.samples + np.sin(grid.x))) < 1e-12

    def test_nyquist_zeroed_for_odd_orders(self):
        # the first derivative drops the Nyquist mode; 1 + xi^2, the even-order
        # multiplier of the momentum map, keeps it
        grid = make_grid(16, 2 * np.pi)
        u_hat = np.zeros(9, dtype=complex)
        u_hat[8] = 1.0  # k = N/2
        assert (grid.half_deriv_multiplier * u_hat)[8] == 0.0
        assert (u_hat / grid.helmholtz_inv_multiplier)[8] != 0.0

    def test_linearity(self, random_field, rng):
        grid = random_field.grid
        g = RealField(grid, rng.standard_normal(grid.n_points))
        lhs = half_derivative(RealField(grid, 2.0 * random_field.samples + g.samples)).samples
        rhs = 2.0 * half_derivative(random_field).samples + half_derivative(g).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestHelmholtzInv:
    def test_cos_2x(self):
        grid = make_grid(64, 2 * np.pi)
        out = inverse_momentum(RealField(grid, np.cos(2 * grid.x)))
        assert np.max(np.abs(out.samples - np.cos(2 * grid.x) / 5.0)) < 1e-14

    def test_constant_untouched(self):
        grid = make_grid(64, 2 * np.pi)
        out = inverse_momentum(RealField(grid, np.ones(64)))
        assert np.max(np.abs(out.samples - 1.0)) < 1e-14

    def test_inverse_of_forward_operator(self, random_field):
        u_hat, back = helmholtz_pair(random_field)
        assert np.max(np.abs(back - u_hat)) < 1e-13

    def test_forward_via_derivatives(self, random_field):
        # (1 - d^2/dx^2) u computed with the half derivative, then inverted
        u_xx = half_derivative(half_derivative(random_field))
        forward = RealField(random_field.grid, random_field.samples - u_xx.samples)
        back = inverse_momentum(forward)
        assert np.max(np.abs(back.samples - random_field.samples)) < 1e-13

    def test_commutes_with_deriv(self, random_field):
        grid = random_field.grid
        u_hat = half_spectrum(random_field)
        deriv, inverse = grid.half_deriv_multiplier, grid.helmholtz_inv_multiplier
        a = deriv * (inverse * u_hat)
        b = inverse * (deriv * u_hat)
        assert np.max(np.abs(a - b)) < 1e-15

    def test_linearity(self, random_field, rng):
        grid = random_field.grid
        g = RealField(grid, rng.standard_normal(grid.n_points))
        combined = RealField(grid, 3.0 * random_field.samples - 0.5 * g.samples)
        inverse = grid.helmholtz_inv_multiplier
        lhs = inverse * half_spectrum(combined)
        rhs = 3.0 * inverse * half_spectrum(random_field) - 0.5 * inverse * half_spectrum(g)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestDealias:
    def test_cutoff_arithmetic_n16(self):
        # 2/3 of N/2 = 8 is 5.33: the band is k = 0 .. 5 of the half spectrum
        grid = make_grid(16, 2 * np.pi)
        assert grid.band_size == 6
        assert np.array_equal(grid.xi[: grid.band_size], np.arange(6.0))

    def test_band_limited_unchanged(self):
        # a spectrum with no modes above the band loses nothing to the band cut
        grid = make_grid(16, 2 * np.pi)
        u_hat = np.zeros(9, dtype=complex)
        u_hat[:6] = 1.0 + 0.5j
        u_hat[0] = 1.0
        whole = _irfft(u_hat, np.empty(16))
        assert np.array_equal(_irfft(u_hat[: grid.band_size], np.empty(16)), whole)

    def test_aliased_product_removed(self):
        # sin(5x)^2 = 1/2 - cos(10x)/2; on N=16 mode 10 aliases onto 6, just
        # above the band k = 0 .. 5
        coarse = make_grid(16, 2 * np.pi)
        f = np.sin(5 * coarse.x)
        raw = half_spectrum(RealField(coarse, f * f))
        assert abs(raw[6]) > 0.2  # the alias of mode 10, above the band
        product = raw[: coarse.band_size]
        fine = make_grid(64, 2 * np.pi)
        f_fine = np.sin(5 * fine.x)
        reference = half_spectrum(RealField(fine, f_fine * f_fine))
        for k in range(6):
            assert abs(product[k] - reference[k]) < 1e-14


class TestHalfSpectrum:
    @pytest.mark.parametrize("fraction, band", [(2.0 / 3.0, 6), (0.5, 5), (1.0, 9)])
    def test_band_size_n16(self, fraction, band):
        # 2/3 of N/2 = 8 keeps k = 0..5; fraction 1 keeps the Nyquist mode too
        assert make_grid(16, 2 * np.pi, fraction).band_size == band

    def test_multipliers_match_full_spectrum_operators(self, random_field):
        grid = random_field.grid
        u_hat = np.fft.rfft(random_field.samples) / grid.n_points
        assert grid.half_deriv_multiplier[-1] == 0.0
        expected_deriv = derivative(grid, series_coefficients(random_field), 1)
        expected = np.fft.rfft(expected_deriv.samples) / grid.n_points
        assert np.allclose(grid.half_deriv_multiplier * u_hat, expected, rtol=0, atol=1e-13)

    # every even N from 8 to 598 and the powers of two 1024 .. 8192
    PIN_N = (*range(8, 600, 2), 1024, 2048, 4096, 8192)
    PIN_LENGTHS = (2 * np.pi, 80.0, 1.0, 7.3)
    PIN_FRACTIONS = (2.0 / 3.0, *(q / 12 for q in range(1, 13)), 1e-3, 0.1, 0.999)

    def test_properties_pin_the_full_spectrum_bytes(self):
        # xi, the Helmholtz inverse, i xi and the band against their definitions over
        # the full FFT-ordered spectrum, kept to the half spectrum's N/2 + 1 modes
        for n in self.PIN_N:
            half = n // 2 + 1
            for box_length in self.PIN_LENGTHS:
                grid = make_grid(n, box_length)
                k, xi = fft_frequencies(grid)
                deriv = 1j * xi[:half]
                deriv[-1] = 0.0
                assert grid.xi.tobytes() == np.abs(xi[:half]).tobytes()
                inverse = (1.0 / (1.0 + xi**2))[:half]
                assert grid.helmholtz_inv_multiplier.tobytes() == inverse.tobytes()
                assert grid.half_deriv_multiplier.tobytes() == deriv.tobytes()
            # the band does not depend on L
            for fraction in self.PIN_FRACTIONS:
                mask = np.abs(k) <= fraction * (n // 2)
                band = make_grid(n, 1.0, fraction).band_size
                assert band == np.count_nonzero(mask[:half]), (n, fraction)


class TestRemovedOneLiners:
    """Each numpy one-liner of the README's "Removed" table, run against the
    test references: `u` a RealField, `g = u.grid`, `N = g.n_points`, `c` its
    coefficients in numpy FFT ordering, `k` and `xi` its FFT-ordered modes,
    `dt_max` and `cfl_safety` the numbers the removed EvolveConfig fields held,
    `traj` a Trajectory, `u0`, `b`, `t` and `n` a datum, b, a horizon and a
    step count, and `dt` a step."""

    README = Path(__file__).resolve().parents[1] / "README.md"
    FREQUENCIES = {"k": "np.rint(np.fft.fftfreq(N) * N)", "xi": "2 * np.pi * k / g.box_length"}
    ROWS = {
        "dft(u).coeffs": "np.fft.fft(u.samples) / N",
        "idft(SpectralField(g, c))": "RealField(g, (np.fft.ifft(c) * N).real)",
        "deriv(F, j).coeffs": "(1j * xi) ** j * c",
        "helmholtz(F).coeffs": "(1 + xi**2) * c",
        "helmholtz_inv(F).coeffs": "1 / (1 + xi**2) * c",
        "dealias(F).coeffs": "np.where(np.abs(k) <= g.dealias_fraction * (N // 2), c, 0)",
        "F.coeff(q)": "c[q % N]",
        "momentum_max(u)": "float(np.max(momentum(u).samples))",
        "GridSpec.modes": "k",
        "GridSpec.dealias_mask": "np.abs(k) <= g.dealias_fraction * (N // 2)",
        "GridSpec.xi": "xi",
        "GridSpec.helmholtz_inv_multiplier": "1 / (1 + xi**2)",
        "cfl_dt(u, cfg)": "min(dt_max, cfl_safety * u.grid.dx / max(np.max(np.abs(u.samples)), 1e-8))",
        "h1_energy(u)": "sobolev_norm(u, 1.0) ** 2",
        "Trajectory.times": "np.array([t for t, _ in traj.snapshots])",
        "Trajectory.steps": "len(traj.spans)",
        "Trajectory.dt_min": "min(traj.spans, default=None)",
        "Trajectory.dt_max": "max(traj.spans, default=None)",
        'run(u0, EvolveConfig(..., stepper="rk4")).final_state':
            "RealField(u0.grid, reference_march(u0, b, t, n))",
        "rk4_step(u, dt, b)": "RealField(u.grid, reference_march(u, b, dt, 1))",
        "rk4_march(u0, b, t, n)": "RealField(u0.grid, reference_march(u0, b, t, n))",
    }
    # the removed functions as they were defined, each over one more input;
    # `cfg` stands for an EvolveConfig as it was, with its dt_max and cfl_safety
    REMOVED = {
        "cfl_dt(u, cfg)": lambda u, cfg, traj: min(
            cfg.dt_max, cfg.cfl_safety * u.grid.dx / max(float(np.max(np.abs(u.samples))), 1e-8)),
        "h1_energy(u)": lambda u, cfg, traj: sobolev_norm(u, 1.0) ** 2,
        "Trajectory.times": lambda u, cfg, traj: np.array([t for t, _ in traj.snapshots]),
    }

    def test_one_liners_match_the_references(self, random_field):
        text = self.README.read_text()
        rows = [line for line in text.splitlines() if line.startswith("| `")]
        for name, expression in self.ROWS.items():
            assert any(line.startswith(f"| `{name}`") and f"`{expression}`" in line
                       for line in rows), name
        for name, expression in self.FREQUENCIES.items():
            assert f"`{name} = {expression}`" in text, name

        u = random_field
        g, n = u.grid, u.grid.n_points
        scope = {"np": np, "RealField": RealField, "momentum": momentum,
                 "sobolev_norm": sobolev_norm, "reference_march": reference_march,
                 "u": u, "g": g, "N": n,
                 "c": series_coefficients(u)}
        for name, expression in self.FREQUENCIES.items():
            scope[name] = eval(expression, scope)

        def run(name, **extra):
            return eval(self.ROWS[name], {**scope, **extra})

        c, half = scope["c"], n // 2 + 1
        k, xi = fft_frequencies(g)
        assert np.array_equal(scope["k"], k) and scope["xi"].tobytes() == xi.tobytes()
        assert run("dft(u).coeffs").tobytes() == c.tobytes()
        planted = planted_field(g, c).samples
        assert run("idft(SpectralField(g, c))").samples.tobytes() == planted.tobytes()
        scale = np.max(np.abs(u.samples))
        for j in (1, 2, 3):
            coeffs = run("deriv(F, j).coeffs", j=j)
            if j % 2:
                coeffs[n // 2] = 0.0
            error = planted_field(g, coeffs).samples - derivative(g, c, j).samples
            assert np.max(np.abs(error)) <= 1e-10 * scale, j
        u_xx = derivative(g, c, 2).samples
        forward = series_coefficients(RealField(g, u.samples - u_xx))
        assert np.allclose(run("helmholtz(F).coeffs"), forward, rtol=0, atol=1e-12)
        inverse = series_coefficients(inverse_momentum(u))
        assert np.allclose(run("helmholtz_inv(F).coeffs"), inverse, rtol=0, atol=1e-14)
        assert np.array_equal(run("dealias(F).coeffs"), np.where(fft_band(g), c, 0))
        assert run("F.coeff(q)", q=-3) == c[n - 3]
        assert run("F.coeff(q)", q=-3) == pytest.approx(np.conj(c[3]), rel=1e-13)
        assert run("momentum_max(u)") == pytest.approx(np.max(u.samples - u_xx), rel=1e-12)
        assert np.array_equal(run("GridSpec.modes"), k)
        assert np.array_equal(run("GridSpec.dealias_mask"), fft_band(g))
        # the grid keeps the first N/2 + 1 entries, the Nyquist one as +N/2
        assert np.abs(run("GridSpec.xi")[:half]).tobytes() == g.xi.tobytes()
        inverse_multiplier = run("GridSpec.helmholtz_inv_multiplier")[:half]
        assert inverse_multiplier.tobytes() == g.helmholtz_inv_multiplier.tobytes()

        # bit for bit against the removed functions, on u and on a zero field
        # (the velocity floor); the trajectory marches sin x, because u's
        # first series step fills the top third of the band and the run
        # aborts as unresolved
        cfg = SimpleNamespace(dt_max=0.05, cfl_safety=0.2)
        scope.update(dt_max=cfg.dt_max, cfl_safety=cfg.cfl_safety)
        traj = scope["traj"] = evolve.run(
            RealField(g, np.sin(g.x)), EvolveConfig(b=2.0, t_final=0.02, sample_interval=0.01))
        zero = RealField(g, np.zeros(n))
        for name, removed in self.REMOVED.items():
            for field in (u, zero):
                got = np.asarray(run(name, u=field))
                want = np.asarray(removed(field, cfg, traj))
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert run("cfl_dt(u, cfg)", u=zero) == 0.05
        assert run("Trajectory.times", traj=traj).tolist() == [0.0, 0.01, 0.02]

        # the removed step counters, kept as the removed Trajectory._count_step
        # kept them, on a record of three steps and on one of none
        counters = ("Trajectory.steps", "Trajectory.dt_min", "Trajectory.dt_max")
        for spans in ([0.3, 0.1, 0.2], []):
            steps, dt_min, dt_max = 0, None, None
            for dt in spans:
                steps += 1
                dt_min = dt if dt_min is None else min(dt_min, dt)
                dt_max = dt if dt_max is None else max(dt_max, dt)
            record = evolve.Trajectory(b=2.0, spans=spans)
            assert [run(name, traj=record) for name in counters] == [steps, dt_min, dt_max]

        # the RK4 run of the removed stepper option, n steps of t / n when the
        # removed dt_max was t / n, the removed single step and the removed
        # RK4 march, bit for bit against the plain-numpy reference march
        rk4_run = 'run(u0, EvolveConfig(..., stepper="rk4")).final_state'
        got = run(rk4_run, u0=u, b=2.0, t=0.02, n=10).samples
        assert np.max(np.abs(got - u.samples)) > 1e-3
        assert got.tobytes() == reference_march(u, 2.0, 0.02, 10).tobytes()
        got = run("rk4_step(u, dt, b)", b=2.0, dt=0.002).samples
        assert got.tobytes() == reference_march(u, 2.0, 0.002, 1).tobytes()
        got = run("rk4_march(u0, b, t, n)", u0=u, b=3.0, t=0.02, n=10).samples
        assert got.tobytes() == reference_march(u, 3.0, 0.02, 10).tobytes()


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
        n = u.grid.n_points
        back = _irfft(_rfft(u.samples, np.empty(n // 2 + 1, dtype=complex)), np.empty(n))
        error = np.max(np.abs(back - u.samples))
        assert error <= 1e-14 * np.max(np.abs(u.samples))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(random_grids)
    def test_helmholtz_inverse(self, case):
        u_hat, back = helmholtz_pair(_noise(*case))
        error = np.max(np.abs(back - u_hat))
        assert error <= 1e-14 * np.max(np.abs(u_hat))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(random_grids)
    def test_derivative_of_a_sine(self, case):
        n, box_length, seed = case
        grid = make_grid(n, box_length)
        q = 1 + seed % (n // 2 - 1)  # every mode below Nyquist
        phase = (2.0 * np.pi * q / n) * np.arange(n)
        xi_q = 2.0 * np.pi * q / box_length
        du = half_derivative(RealField(grid, np.sin(phase))).samples
        assert np.max(np.abs(du - xi_q * np.cos(phase))) <= 1e-12 * xi_q

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(random_grids)
    def test_half_multiplier_is_the_full_derivative(self, case):
        # against i xi_k, k = 0 .. N/2 with the Nyquist entry zeroed, built in plain numpy
        u = _noise(*case)
        u_hat = half_spectrum(u)
        ixi, _, _ = reference_wavenumbers(u.grid.n_points, u.grid.box_length)
        np.testing.assert_array_equal(u.grid.half_deriv_multiplier * u_hat, ixi * u_hat)


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
