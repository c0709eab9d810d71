"""CFL control, RK4 stepping, blow-up handling, and conservation monitoring."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bfamlab import (
    BlowupError,
    ConfigurationError,
    EvolveConfig,
    RealField,
    conserved_mean,
    make_grid,
    rhs_F,
    rk4_step,
    run,
    sobolev_norm,
)
from bfamlab import dynamics, evolve
from bfamlab import grid as grid_module
from bfamlab.scenarios import initial_data
from conftest import fft_band, fft_frequencies


def bump_datum(n=512, length=80.0, amplitude=0.5, width=8.0):
    grid = make_grid(n, length)
    return initial_data("momentum_bump", {"amplitude": amplitude, "width": width}, grid)


def cfl_step(u, cfg):
    """The march's CFL step for the state u, whose peak the march carries."""
    return evolve._cfl_step(float(np.max(np.abs(u.samples))), u.grid.dx, cfg)


class TestCflDt:
    def test_zero_field_hits_dt_max(self):
        grid = make_grid(64, 2 * np.pi)
        cfg = EvolveConfig(b=2.0, t_final=1.0, dt_max=0.05, sample_interval=0.5)
        assert cfl_step(RealField(grid, np.zeros(64)), cfg) == 0.05

    def test_velocity_limited_formula(self):
        grid = make_grid(256, 2 * np.pi)
        cfg = EvolveConfig(b=2.0, t_final=1.0, dt_max=1.0, sample_interval=0.5)
        u = RealField(grid, 2.0 * np.sin(grid.x))
        expected = 0.2 * (2 * np.pi / 256) / 2.0
        assert cfl_step(u, cfg) == pytest.approx(expected, rel=1e-12)

    def test_doubling_n_halves_dt(self):
        cfg = EvolveConfig(b=2.0, t_final=1.0, dt_max=1.0, sample_interval=0.5)
        dts = []
        for n in (256, 512):
            grid = make_grid(n, 2 * np.pi)
            dts.append(cfl_step(RealField(grid, 2.0 * np.sin(grid.x)), cfg))
        assert dts[0] == pytest.approx(2 * dts[1], rel=1e-12)


class TestRk4Step:
    def test_zero_stays_zero(self):
        grid = make_grid(64, 2 * np.pi)
        out = rk4_step(RealField(grid, np.zeros(64)), 0.01, 2.0)
        assert np.max(np.abs(out.samples)) == 0.0

    def test_sine_steady_at_b_minus_one(self):
        grid = make_grid(64, 2 * np.pi)
        u = RealField(grid, np.sin(grid.x))
        out = rk4_step(u, 0.005, -1.0)
        assert np.max(np.abs(out.samples - u.samples)) < 1e-12

    def test_blowup_threshold(self):
        grid = make_grid(64, 2 * np.pi)
        u = RealField(grid, 1e5 * np.sin(grid.x))
        with pytest.raises(BlowupError):
            rk4_step(u, 0.5, 2.0, blowup_threshold=1e6)

    def test_nonpositive_dt_rejected(self):
        grid = make_grid(64, 2 * np.pi)
        with pytest.raises(ConfigurationError):
            rk4_step(RealField(grid, np.zeros(64)), 0.0, 2.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        grid = make_grid(64, 2 * np.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
                rk4_step(RealField(grid, np.sin(grid.x)), dt, 2.0)

    def test_overflow_in_a_stage_is_blowup(self):
        grid = make_grid(64, 2 * np.pi)
        u = RealField(grid, 1e200 * np.sin(grid.x))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowupError):
            rk4_step(u, 0.01, 2.0, blowup_threshold=1e300)


def _complex_fft_rhs(u, b, xi, keep):
    """Dealiased b-family RHS in conservative form with full complex FFTs,
    -d/dx [u^2/2 + (1 - d^2/dx^2)^{-1} ((b/2) u^2 + ((3-b)/2) u_x^2)], in
    physical space."""
    ixi = 1j * xi
    ixi[xi.size // 2] = 0.0
    ux = np.fft.ifft(ixi * np.fft.fft(u)).real
    s_hat = np.where(keep, np.fft.fft(u * u), 0.0)
    d_hat = np.where(keep, np.fft.fft(ux * ux), 0.0)
    flux = 0.5 * s_hat + (0.5 * b * s_hat + 0.5 * (3.0 - b) * d_hat) / (1.0 + xi**2)
    return -np.fft.ifft(ixi * flux).real


def _complex_fft_rk4(u, dt, b, xi, keep):
    k1 = _complex_fft_rhs(u, b, xi, keep)
    k2 = _complex_fft_rhs(u + 0.5 * dt * k1, b, xi, keep)
    k3 = _complex_fft_rhs(u + 0.5 * dt * k2, b, xi, keep)
    k4 = _complex_fft_rhs(u + dt * k3, b, xi, keep)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestRk4AgainstComplexFft:
    """rk4_step against an independent complex-FFT step on a field that fills
    every mode, including those above the dealias cutoff."""

    @pytest.fixture
    def full_spectrum_field(self, rng):
        grid = make_grid(64, 2 * np.pi)
        k = np.arange(33)
        coeffs = (rng.standard_normal(33) + 1j * rng.standard_normal(33)) / (1.0 + k)
        samples = np.fft.irfft(coeffs, 64) * 64
        return RealField(grid, 0.5 * samples / np.max(np.abs(samples)))

    @pytest.mark.parametrize("b", [-1.0, 0.0, 0.8, 2.0, 3.0, 5.5])
    def test_matches_complex_fft_step(self, full_spectrum_field, b):
        u = full_spectrum_field
        grid = u.grid
        dt = 1e-3
        expected = _complex_fft_rk4(u.samples, dt, b, fft_frequencies(grid)[1], fft_band(grid))
        out = rk4_step(u, dt, b)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out.samples - expected)) / scale <= 1e-13

    @pytest.mark.parametrize("b", [-1.0, 2.0, 3.0])
    def test_modes_above_cutoff_stay_frozen(self, full_spectrum_field, b):
        u = full_spectrum_field
        grid = u.grid
        out = rk4_step(u, 1e-2, b)
        u_hat = np.fft.fft(u.samples) / grid.n_points
        out_hat = np.fft.fft(out.samples) / grid.n_points
        above = ~fft_band(grid)
        assert np.max(np.abs(u_hat[above])) > 1e-3 * np.max(np.abs(u_hat))
        assert np.max(np.abs(out_hat[above] - u_hat[above])) <= 1e-15 * np.max(np.abs(u_hat))
        # the band itself did move
        assert np.max(np.abs(out_hat[~above] - u_hat[~above])) > 1e-6


class TestFftBudget:
    """Transform and combine counts of the stepping hot path."""

    @pytest.fixture
    def u(self):
        grid = make_grid(256, 80.0)
        return RealField(grid, np.exp(-(((grid.x - 40.0) / 3.0) ** 2)))

    def test_rk4_step_budget(self, u, fft_counts):
        # rfft(u) and u_x to start the march, then one 16-transform step
        rk4_step(u, 0.01, 2.0)
        assert fft_counts == {"real": 18, "complex": 0, "calls": 10, "combine": 4}

    def test_run_step_budget(self, u, fft_counts):
        # dt_max = 0.01 is far below the CFL step 0.2 dx / max|u| = 0.0625
        cfg = EvolveConfig(b=2.0, t_final=0.1, dt_max=0.01, sample_interval=0.05)
        traj = run(u, cfg)
        assert traj.steps == 10
        # 2 transforms in 2 calls start the march; each step is 16 in 8
        assert fft_counts == {"real": 2 + 16 * 10, "complex": 0, "calls": 2 + 8 * 10, "combine": 4 * 10}

    def test_rhs_budget(self, u, fft_counts):
        rhs_F(u, 2.0)
        assert fft_counts == {"real": 5, "complex": 0, "calls": 4, "combine": 1}

    def test_sign_certificate_budget(self, u, fft_counts):
        # both extremes of the verdict come from one momentum field
        evolve._check_sign_certificate(u)
        assert fft_counts == {"real": 2, "complex": 0, "calls": 2, "combine": 0}


class _CountingProxy:
    """Stands for a module or callable and counts the calls made through it."""

    def __init__(self, target, tally):
        self._target, self._tally = target, tally

    def __getattr__(self, name):
        value = getattr(self._target, name)
        return _CountingProxy(value, self._tally) if callable(value) else value

    def __call__(self, *args, **kwargs):
        self._tally["calls"] += 1
        return self._target(*args, **kwargs)


def _reference_march(u0, b, dts):
    """The band of rfft(u) and the samples [u, u_x] after steps of the sizes
    dts: classical RK4 on the band, written with plain numpy operators and
    numpy.fft, each stage spectrum u_hat - c (-k_i) and the sum
    ((k1 + 2 k2) + 2 k3) + k4 formed as the march forms them; modes above the
    band keep the datum's values. The band of -F is A rfft(u^2) + B rfft(u_x^2)
    with A = (i xi + b i xi / (1 + xi^2)) / 2 and B = ((3 - b)/2) i xi / (1 + xi^2)."""
    grid = u0.grid
    n, m = grid.n_points, grid.band_size
    xi = 2.0 * np.pi * np.arange(n // 2 + 1) / grid.box_length
    ixi = 1j * xi
    ixi[-1] = 0.0
    nonlocal_ = ixi[:m] * (1.0 / (1.0 + xi[:m] ** 2))
    A, B = 0.5 * (ixi[:m] + b * nonlocal_), (0.5 * (3.0 - b)) * nonlocal_
    spectrum = np.fft.rfft(u0.samples)

    def fields_of(band):
        spectrum[:m] = band
        return np.fft.irfft(np.array([spectrum, ixi * spectrum]), n)

    def minus_f(fields):
        squares = np.fft.rfft(fields * fields)
        return A * squares[0, :m] + B * squares[1, :m]

    u_hat = spectrum[:m].copy()
    fields = np.array([u0.samples, np.fft.irfft(ixi * spectrum, n)])
    for dt in dts:
        k1 = minus_f(fields)
        k2 = minus_f(fields_of(u_hat - (0.5 * dt) * k1))
        k3 = minus_f(fields_of(u_hat - (0.5 * dt) * k2))
        k4 = minus_f(fields_of(u_hat - dt * k3))
        u_hat = u_hat - (dt / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        fields = fields_of(u_hat)
    return u_hat, fields


class TestStepArithmetic:
    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0])
    def test_march_matches_plain_rk4_bit_for_bit(self, rng, b):
        # a datum that fills every mode, those above the band included, and
        # 40 steps of three sizes: any change to the step's arithmetic, its
        # order of operations or its frozen modes shows in the bytes
        grid = make_grid(256, 2 * np.pi)
        k = np.arange(129)
        coeffs = (rng.standard_normal(129) + 1j * rng.standard_normal(129)) / (1.0 + k) ** 2
        samples = np.fft.irfft(coeffs, 256)
        u0 = RealField(grid, 0.5 * samples / np.max(np.abs(samples)))
        dts = [(0.02, 0.013, 0.007)[i % 3] for i in range(40)]
        march = evolve._March(u0, b, 1e6)
        for dt in dts:
            march.step(dt)
        u_hat, fields = _reference_march(u0, b, dts)
        assert np.all(np.isfinite(fields))
        assert np.max(np.abs(fields[0] - u0.samples)) > 1e-3
        assert march.u_hat.tobytes() == u_hat.tobytes()
        assert march.op.fields.tobytes() == fields.tobytes()


class TestStepCalls:
    def test_step_makes_at_most_41_numpy_calls(self, monkeypatch):
        # every numpy function, ufunc and ufunc method the step and its
        # combines call, and the 8 pocketfft kernel calls
        grid = make_grid(256, 80.0)
        march = evolve._March(RealField(grid, np.exp(-(((grid.x - 40.0) / 3.0) ** 2))), 2.0, 1e6)
        tally = {"calls": 0}
        for module in (evolve, dynamics):
            monkeypatch.setattr(module, "np", _CountingProxy(np, tally))
        monkeypatch.setattr(grid_module, "_pocketfft", _CountingProxy(grid_module._pocketfft, tally))
        march.step(0.01)
        assert 0 < tally["calls"] <= 41


class TestStepAllocation:
    def test_step_allocates_less_than_one_sample_array(self):
        # a warm march writes every stage into its work arrays; the little a
        # step still allocates (small Python objects, FFT scratch) stays under
        # one real N-sample array
        grid = make_grid(1024, 80.0)
        march = evolve._March(RealField(grid, 0.05 / np.cosh(grid.x - 40.0)), 2.0, 1e6)
        march.step(0.02)
        tracemalloc.start()
        try:
            march.step(0.02)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            march.step(0.02)
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert growth < 8 * grid.n_points


class TestRun:
    def test_zero_horizon_returns_single_snapshot(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.0, dt_max=0.01, sample_interval=0.5)
        traj = run(u0, cfg)
        assert len(traj.snapshots) == 1
        t0, state = traj.snapshots[0]
        assert t0 == 0.0
        assert np.array_equal(state.samples, u0.samples)

    def test_sample_times_exact(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=1.0, dt_max=0.013, sample_interval=0.25)
        traj = run(u0, cfg)
        assert np.allclose([t for t, _ in traj.snapshots], [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_final_time_not_multiple_of_cadence(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.9, dt_max=0.02, sample_interval=0.4)
        traj = run(u0, cfg)
        assert np.allclose([t for t, _ in traj.snapshots], [0.0, 0.4, 0.8, 0.9], atol=1e-12)

    def test_determinism(self):
        u0 = bump_datum(n=256)
        cfg = EvolveConfig(b=3.0, t_final=0.5, dt_max=0.01, sample_interval=0.25)
        a = run(u0, cfg)
        b = run(u0, cfg)
        for (ta, ua), (tb, ub) in zip(a.snapshots, b.snapshots):
            assert ta == tb
            assert np.array_equal(ua.samples, ub.samples)

    def test_dt_used_recorded(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.2, dt_max=0.01, sample_interval=0.1)
        traj = run(u0, cfg)
        assert len(traj.dt_used) == len(traj.snapshots) == 3
        assert traj.dt_used[0] == 0.0
        assert all(dt > 0 for dt in traj.dt_used[1:])

    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0])
    def test_mean_conserved(self, b):
        u0 = bump_datum()
        cfg = EvolveConfig(b=b, t_final=1.0, dt_max=0.01, sample_interval=0.5)
        traj = run(u0, cfg)
        means = [conserved_mean(u) for _, u in traj.snapshots]
        assert abs(means[-1] - means[0]) / abs(means[0]) < 1e-10

    def test_h1_conserved_at_b2(self):
        u0 = bump_datum()
        cfg = EvolveConfig(b=2.0, t_final=2.0, dt_max=0.01, sample_interval=1.0)
        traj = run(u0, cfg)
        values = [sobolev_norm(u, 1.0) ** 2 for _, u in traj.snapshots]
        assert abs(values[-1] - values[0]) / values[0] < 1e-6

    def test_sine_steady_run(self):
        grid = make_grid(128, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))
        cfg = EvolveConfig(b=-1.0, t_final=0.5, dt_max=0.005, sample_interval=0.25)
        traj = run(u0, cfg)
        assert np.max(np.abs(traj.final_state.samples - u0.samples)) < 1e-12

    def test_sign_certificate_rejects_mixed_momentum(self):
        grid = make_grid(128, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))  # momentum 2 sin x changes sign
        cfg = EvolveConfig(
            b=2.0, t_final=0.1, dt_max=0.01, sample_interval=0.1,
            require_sign_certificate=True,
        )
        with pytest.raises(ConfigurationError):
            run(u0, cfg)

    def test_sign_certificate_accepts_bump(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(
            b=2.0, t_final=0.1, dt_max=0.01, sample_interval=0.1,
            require_sign_certificate=True,
        )
        traj = run(u0, cfg)
        assert traj.snapshots[-1][0] == pytest.approx(0.1)

    def test_blowup_carries_partial_trajectory(self):
        # the b = 3 bump's sup grows past 1.2 around t ~ 3.2
        u0 = bump_datum(n=256, amplitude=1.0, width=5.0)
        cfg = EvolveConfig(
            b=3.0, t_final=5.0, dt_max=0.02, sample_interval=0.5,
            blowup_threshold=1.2,
        )
        with pytest.raises(BlowupError) as excinfo:
            run(u0, cfg)
        err = excinfo.value
        assert err.trajectory is not None
        assert err.time is not None
        assert 0.0 < err.time < 5.0
        assert err.trajectory.snapshots[0][0] == 0.0
        assert len(err.trajectory.snapshots) >= 2
        # sign-definite datum, so the message should point at numerics
        assert "not expected" in str(err)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            EvolveConfig(b=2.0, t_final=-1.0, dt_max=0.01, sample_interval=0.1)
        with pytest.raises(ConfigurationError):
            EvolveConfig(b=2.0, t_final=1.0, dt_max=0.0, sample_interval=0.1)
        with pytest.raises(ConfigurationError):
            EvolveConfig(b=2.0, t_final=1.0, dt_max=0.01, sample_interval=0.1, cfl_safety=1.5)


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["b", "t_final", "dt_max", "sample_interval", "blowup_threshold"])
    def test_non_finite_config_rejected(self, name, value):
        fields = dict(b=2.0, t_final=1.0, dt_max=0.01, sample_interval=0.1, blowup_threshold=1e6)
        fields[name] = value
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            EvolveConfig(**fields)


class TestRunMarch:
    """run's carried-spectrum march: blow-up, agreement with rk4_step, step counts."""

    def test_threshold_overflow_aborts_with_partial_trajectory(self):
        # the first step's sup|u| is about 1, above the threshold
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))
        cfg = EvolveConfig(b=2.0, t_final=1.0, dt_max=0.01, sample_interval=0.05,
                           blowup_threshold=0.5)
        with pytest.raises(BlowupError, match="exceeded blow-up threshold") as excinfo:
            run(u0, cfg)
        err = excinfo.value
        assert err.time == 0.0
        assert err.trajectory.steps == 0
        assert [t for t, _ in err.trajectory.snapshots] == [0.0]
        assert "blow-up may be genuine" in str(err)

    def test_nan_state_aborts_with_partial_trajectory(self):
        # u^2 overflows in the first stage, so the new state is NaN; the
        # threshold test must still refuse it
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, 1e200 * np.sin(grid.x))
        cfg = EvolveConfig(b=2.0, t_final=1.0, dt_max=0.01, sample_interval=0.05,
                           blowup_threshold=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            BlowupError, match="non-finite state after RK4 step"
        ) as excinfo:
            run(u0, cfg)
        err = excinfo.value
        assert err.time == 0.0
        assert err.trajectory.snapshots[0][1] is u0
        assert err.trajectory.steps == 0

    def test_abort_time_is_the_last_completed_step(self):
        u0 = bump_datum(n=256, amplitude=1.0, width=5.0)
        cfg = EvolveConfig(b=3.0, t_final=5.0, dt_max=0.02, sample_interval=0.5,
                           blowup_threshold=1.2)
        with pytest.raises(BlowupError) as excinfo:
            run(u0, cfg)
        err = excinfo.value
        traj = err.trajectory
        # the march aborts after its last completed step, at t ~ steps * dt_max
        assert traj.steps > 0
        assert err.time >= traj.snapshots[-1][0]
        assert err.time == pytest.approx(traj.steps * 0.02, abs=0.02)

    def test_matches_a_loop_of_rk4_step(self, monkeypatch):
        # CFL-limited: 0.2 dx / max|u| is about 0.08, below dt_max
        u0 = bump_datum(n=256, amplitude=0.8, width=5.0)
        cfg = EvolveConfig(b=2.0, t_final=1.0, dt_max=0.2, sample_interval=0.25)
        dts = []
        step = evolve._March.step

        def logged(march, dt):
            dts.append(dt)
            return step(march, dt)

        monkeypatch.setattr(evolve._March, "step", logged)
        final = run(u0, cfg).final_state.samples
        monkeypatch.undo()
        assert len(set(dts)) > 4
        u = u0
        for dt in dts:
            u = rk4_step(u, dt, cfg.b)
        assert np.max(np.abs(u.samples - final)) / np.max(np.abs(final)) <= 1e-13

    def test_steps_and_dt_range_recorded(self):
        # dt_max = 0.01 is far below the CFL step 0.2 dx / max|u| ~ 0.25
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=1.0, dt_max=0.01, sample_interval=0.5)
        traj = run(u0, cfg)
        assert traj.steps == math.ceil(cfg.t_final / cfg.dt_max)
        assert traj.dt_max == pytest.approx(cfg.dt_max, rel=1e-9)
        assert traj.dt_min == pytest.approx(cfg.dt_max, rel=1e-9)

    def test_zero_horizon_takes_no_step(self):
        cfg = EvolveConfig(b=2.0, t_final=0.0, dt_max=0.01, sample_interval=0.5)
        traj = run(bump_datum(n=128), cfg)
        assert (traj.steps, traj.dt_min, traj.dt_max) == (0, None, None)

    def test_snapshots_own_their_samples(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.3, dt_max=0.01, sample_interval=0.1)
        states = [u.samples for _, u in run(u0, cfg).snapshots]
        assert all(not np.shares_memory(a, b) for i, a in enumerate(states) for b in states[i + 1:])
        assert all(np.max(np.abs(a - b)) > 0 for a, b in zip(states, states[1:]))


class TestOrderOfAccuracy:
    def test_rk4_richardson_ratio(self):
        # self-convergence against a dt/8 reference; order 4 gives ~16
        grid = make_grid(256, 80.0)
        u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)

        def advance(u, dt, steps):
            for _ in range(steps):
                u = rk4_step(u, dt, 2.0)
            return u

        n0 = 10
        dt0 = 0.5 / n0
        coarse = advance(u0, dt0, n0)
        medium = advance(u0, dt0 / 2, 2 * n0)
        reference = advance(u0, dt0 / 8, 8 * n0)
        e_coarse = np.linalg.norm(coarse.samples - reference.samples)
        e_medium = np.linalg.norm(medium.samples - reference.samples)
        assert 14.0 <= e_coarse / e_medium <= 18.0
