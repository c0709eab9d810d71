"""The Taylor march of `run`, the tests' RK4 reference march, blow-up handling, and conservation."""

import dataclasses
import itertools
import math
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
    run,
    sobolev_norm,
    taylor_coeffs,
    taylor_eval,
)
from bfamlab import evolve, taylor
from bfamlab.dynamics import _Operator
from bfamlab.scenarios import initial_data
from conftest import fft_band, fft_frequencies, reference_march, rk4_states


def bump_datum(n=512, length=80.0, amplitude=0.5, width=8.0):
    grid = make_grid(n, length)
    return initial_data("momentum_bump", {"amplitude": amplitude, "width": width}, grid)


class TestRk4Step:
    """The tests' RK4 reference march, `conftest.reference_march`, on two
    states it must keep."""

    def test_zero_stays_zero(self):
        grid = make_grid(64, 2 * np.pi)
        out = reference_march(RealField(grid, np.zeros(64)), 2.0, 0.01, 1)
        assert np.max(np.abs(out)) == 0.0

    def test_sine_steady_at_b_minus_one(self):
        grid = make_grid(64, 2 * np.pi)
        u = RealField(grid, np.sin(grid.x))
        out = reference_march(u, -1.0, 0.005, 1)
        assert np.max(np.abs(out - u.samples)) < 1e-12


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
    """The tests' reference march against an independent complex-FFT step on
    a field that fills every mode, including those above the dealias cutoff."""

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
        out = reference_march(u, b, dt, 1)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out - expected)) / scale <= 1e-13

    @pytest.mark.parametrize("b", [-1.0, 2.0, 3.0])
    def test_modes_above_cutoff_stay_frozen(self, full_spectrum_field, b):
        # 2000 steps in one march: the modes above the band pass through one
        # irfft, not one round trip per step
        u = full_spectrum_field
        grid = u.grid
        out = reference_march(u, b, 0.2, 2000)
        u_hat = np.fft.fft(u.samples) / grid.n_points
        out_hat = np.fft.fft(out) / grid.n_points
        above = ~fft_band(grid)
        assert np.max(np.abs(u_hat[above])) > 1e-3 * np.max(np.abs(u_hat))
        assert np.max(np.abs(out_hat[above] - u_hat[above])) <= 1e-15 * np.max(np.abs(u_hat))
        # the band itself did move
        assert np.max(np.abs(out_hat[~above] - u_hat[~above])) > 1e-6


class TestFftBudget:
    """Transform and combine counts of rhs_F and the sign certificate."""

    @pytest.fixture
    def u(self):
        grid = make_grid(256, 80.0)
        return RealField(grid, np.exp(-(((grid.x - 40.0) / 3.0) ** 2)))

    def test_rhs_budget(self, u, fft_counts):
        rhs_F(u, 2.0)
        assert fft_counts == {"real": 5, "complex": 0, "calls": 4, "combine": 1}

    def test_rhs_budget_at_b3(self, u, fft_counts):
        rhs_F(u, 3.0)
        assert fft_counts == {"real": 3, "complex": 0, "calls": 3, "combine": 1}

    def test_sign_certificate_budget(self, u, fft_counts):
        # both extremes of the verdict come from one momentum field
        evolve._check_sign_certificate(u)
        assert fft_counts == {"real": 2, "complex": 0, "calls": 2, "combine": 0}


class TestRun:
    def test_zero_horizon_returns_single_snapshot(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.0, sample_interval=0.5)
        traj = run(u0, cfg)
        assert len(traj.snapshots) == 1
        t0, state = traj.snapshots[0]
        assert t0 == 0.0
        assert np.array_equal(state.samples, u0.samples)

    def test_sample_times_exact(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.25)
        traj = run(u0, cfg)
        assert np.allclose([t for t, _ in traj.snapshots], [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_final_time_not_multiple_of_cadence(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.9, sample_interval=0.4)
        traj = run(u0, cfg)
        assert np.allclose([t for t, _ in traj.snapshots], [0.0, 0.4, 0.8, 0.9], atol=1e-12)

    def test_determinism(self):
        u0 = bump_datum(n=256)
        cfg = EvolveConfig(b=3.0, t_final=0.5, sample_interval=0.25)
        a = run(u0, cfg)
        b = run(u0, cfg)
        for (ta, ua), (tb, ub) in zip(a.snapshots, b.snapshots):
            assert ta == tb
            assert np.array_equal(ua.samples, ub.samples)

    def test_dt_used_recorded(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.2, sample_interval=0.1)
        traj = run(u0, cfg)
        assert len(traj.dt_used) == len(traj.snapshots) == 3
        assert traj.dt_used[0] == 0.0
        assert all(dt > 0 for dt in traj.dt_used[1:])

    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0])
    def test_mean_conserved(self, b):
        u0 = bump_datum()
        cfg = EvolveConfig(b=b, t_final=1.0, sample_interval=0.5)
        traj = run(u0, cfg)
        means = [conserved_mean(u) for _, u in traj.snapshots]
        assert abs(means[-1] - means[0]) / abs(means[0]) < 1e-10

    def test_h1_conserved_at_b2(self):
        u0 = bump_datum()
        cfg = EvolveConfig(b=2.0, t_final=2.0, sample_interval=1.0)
        traj = run(u0, cfg)
        values = [sobolev_norm(u, 1.0) ** 2 for _, u in traj.snapshots]
        assert abs(values[-1] - values[0]) / values[0] < 1e-6

    def test_sine_steady_run(self):
        grid = make_grid(128, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))
        cfg = EvolveConfig(b=-1.0, t_final=0.5, sample_interval=0.25)
        traj = run(u0, cfg)
        assert np.max(np.abs(traj.final_state.samples - u0.samples)) < 1e-12

    def test_sign_certificate_rejects_mixed_momentum(self):
        grid = make_grid(128, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))  # momentum 2 sin x changes sign
        cfg = EvolveConfig(
            b=2.0, t_final=0.1, sample_interval=0.1,
            require_sign_certificate=True,
        )
        with pytest.raises(ConfigurationError):
            run(u0, cfg)

    def test_sign_certificate_is_relative_below_unit_momentum(self):
        # momentum 2e-11 sin x changes sign however small it is; the
        # tolerance scales with max|m| alone
        grid = make_grid(128, 2 * np.pi)
        cfg = EvolveConfig(
            b=2.0, t_final=0.1, sample_interval=0.1,
            require_sign_certificate=True,
        )
        u0 = RealField(grid, 1e-11 * np.sin(grid.x))
        assert not evolve._check_sign_certificate(u0)
        with pytest.raises(ConfigurationError):
            run(u0, cfg)
        # a small one-signed momentum and m = 0 still pass
        assert evolve._check_sign_certificate(RealField(grid, 1e-11 * (3.0 + np.sin(grid.x))))
        assert evolve._check_sign_certificate(RealField(grid, np.zeros(128)))

    def test_sign_certificate_accepts_bump(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(
            b=2.0, t_final=0.1, sample_interval=0.1,
            require_sign_certificate=True,
        )
        traj = run(u0, cfg)
        assert traj.snapshots[-1][0] == pytest.approx(0.1)

    def test_blowup_carries_partial_trajectory(self):
        # the b = 3 bump's sup grows past 1.2 around t ~ 3.2
        u0 = bump_datum(n=1024, amplitude=1.0, width=5.0)
        cfg = EvolveConfig(
            b=3.0, t_final=5.0, sample_interval=0.5,
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
            EvolveConfig(b=2.0, t_final=-1.0, sample_interval=0.1)
        with pytest.raises(ConfigurationError):
            EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.0)
        with pytest.raises(ConfigurationError):
            EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.1, blowup_threshold=0.0)

    def test_fields_are_what_the_march_reads(self):
        fields = dataclasses.fields(EvolveConfig)
        assert [f.name for f in fields] == [
            "b", "t_final", "sample_interval", "blowup_threshold", "require_sign_certificate"]
        assert all(f.kw_only for f in fields)

    def test_positional_call_is_refused(self):
        # a call written for the old order (b, t_final, dt_max, sample_interval)
        # would pass dt_max as sample_interval
        with pytest.raises(TypeError):
            EvolveConfig(2.0, 1.0, 0.01, 0.1)
        with pytest.raises(TypeError):
            EvolveConfig(2.0, t_final=1.0, sample_interval=0.1)

    @pytest.mark.parametrize("t_final, sample_interval", [
        (1e300, 1e-300),  # the count overflows to inf
        (1e7, 1.0),
        (1.0, np.nextafter(1e-6, 0.0)),
    ])
    def test_sample_count_bounded(self, t_final, sample_interval):
        # every sample keeps a state, so the count is refused before a list is
        # built; the limit itself is accepted
        with pytest.raises(ConfigurationError, match="t_final / sample_interval must be at most"):
            EvolveConfig(b=2.0, t_final=t_final, sample_interval=sample_interval)
        EvolveConfig(b=2.0, t_final=evolve.MAX_SAMPLES, sample_interval=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["b", "t_final", "sample_interval", "blowup_threshold"])
    def test_non_finite_config_rejected(self, name, value):
        fields = dict(b=2.0, t_final=1.0, sample_interval=0.1, blowup_threshold=1e6)
        fields[name] = value
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            EvolveConfig(**fields)


class TestRunMarch:
    """run's march loop: blow-up, abort time, step spans."""

    def test_threshold_overflow_aborts_with_partial_trajectory(self):
        # the first step's sup|u| is about 1, above the threshold
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))
        cfg = EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.05,
                           blowup_threshold=0.5)
        with pytest.raises(BlowupError, match="exceeded blow-up threshold") as excinfo:
            run(u0, cfg)
        err = excinfo.value
        assert err.time == 0.0
        assert err.trajectory.spans == []
        assert [t for t, _ in err.trajectory.snapshots] == [0.0]
        assert "blow-up may be genuine" in str(err)

    def test_nan_state_aborts_with_partial_trajectory(self, monkeypatch):
        # a step far outside the series' disk overflows the Horner sum, so the
        # new state is not finite; the threshold test must still refuse it
        propose = evolve._TaylorMarch.propose
        monkeypatch.setattr(evolve._TaylorMarch, "propose", lambda march: propose(march) * math.inf)
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))
        cfg = EvolveConfig(b=2.0, t_final=1e300, sample_interval=1e300,
                           blowup_threshold=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            BlowupError, match="non-finite state after Taylor step"
        ) as excinfo:
            run(u0, cfg)
        err = excinfo.value
        assert err.time == 0.0
        assert err.trajectory.snapshots[0][1] is u0
        assert err.trajectory.spans == []

    def test_abort_time_is_the_last_completed_step(self):
        u0 = bump_datum(n=1024, amplitude=1.0, width=5.0)
        cfg = EvolveConfig(b=3.0, t_final=5.0, sample_interval=0.5,
                           blowup_threshold=1.2)
        with pytest.raises(BlowupError) as excinfo:
            run(u0, cfg)
        err = excinfo.value
        traj = err.trajectory
        # the march aborts at the end of its last completed step
        assert len(traj.spans) > 0
        assert err.time >= traj.snapshots[-1][0]
        assert err.time == pytest.approx(math.fsum(traj.spans), abs=1e-12)

    def test_steps_and_dt_range_recorded(self, monkeypatch):
        # the one witness of traj.spans that does not read it: every step
        # that advances the state is logged, the last one, which loads the
        # state at t_final, too, and the last span is t_final less the
        # left-to-right sum of the others, as run accumulates t (not sum(),
        # whose float sum is compensated from Python 3.12 on)
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.25)
        logged, step = [], evolve._TaylorMarch.step

        def logging(march, dt):
            logged.append(dt)
            return step(march, dt)

        monkeypatch.setattr(evolve._TaylorMarch, "step", logging)
        traj = run(u0, cfg)
        assert len(traj.spans) >= 2
        assert traj.spans == logged
        *_, t = itertools.accumulate(traj.spans[:-1], initial=0.0)
        assert traj.spans[-1] == cfg.t_final - t
        assert max(traj.spans) <= cfg.t_final

    def test_zero_horizon_takes_no_step(self):
        cfg = EvolveConfig(b=2.0, t_final=0.0, sample_interval=0.5)
        traj = run(bump_datum(n=128), cfg)
        assert traj.spans == []

    def test_snapshots_own_their_samples(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.3, sample_interval=0.1)
        states = [u.samples for _, u in run(u0, cfg).snapshots]
        assert all(not np.shares_memory(a, b) for i, a in enumerate(states) for b in states[i + 1:])
        assert all(np.max(np.abs(a - b)) > 0 for a, b in zip(states, states[1:]))


class TestTaylorMarch:
    """run's march: the time-Taylor series of each state, summed at a step
    from its last two coefficients, with every sample time in a step read
    from that step's series."""

    def test_sample_times_and_dt_used_exact(self):
        u0 = bump_datum(n=128)
        cfg = EvolveConfig(b=2.0, t_final=0.9, sample_interval=0.4)
        traj = run(u0, cfg)
        spans = traj.spans
        # each sample is read at its own time
        assert [t for t, _ in traj.snapshots] == [0.0, 0.4, 0.8, 0.9]
        # dt_used is the span of the step whose window holds the sample
        ends = np.cumsum(spans)
        ends[-1] = cfg.t_final
        holding = [spans[int(np.searchsorted(ends, t_s))] for t_s, _ in traj.snapshots[1:]]
        assert traj.dt_used == [0.0] + holding
        # one series gives more than one sample here
        assert len(spans) < len(traj.snapshots) - 1
        # the series' steps are far longer than an RK4 step of 0.02
        assert max(spans) > 10 * 0.02

    def test_step_rule(self):
        # h = min over j in {K-1, K} of (tol |u| / |c_j|)^{1/j}, every norm _l2_norm
        u0 = bump_datum(n=256)
        march = evolve._TaylorMarch(u0, 2.0, 1e6)
        h = march.propose()
        series = taylor_coeffs(u0, 2.0, evolve.TAYLOR_ORDER)
        dx = u0.grid.dx
        size = taylor._l2_norm(u0.samples, dx)
        expected = min(
            (evolve.TAYLOR_TOL * size / taylor._l2_norm(series.coeffs[j].samples, dx)) ** (1.0 / j)
            for j in (evolve.TAYLOR_ORDER - 1, evolve.TAYLOR_ORDER)
        )
        assert h == expected
        march.step(0.5 * h)
        assert march.op.fields[0].tobytes() == taylor_eval(series, 0.5 * h).samples.tobytes()

    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0])
    @pytest.mark.parametrize("datum", ["criterion_04", "criterion_09"])
    def test_matches_fine_rk4_at_every_sample(self, datum, b):
        # criterion 04's bump to t = 5 and criterion 09's sech to t = 10, every
        # sample within 1e-12 of max|u| of the RK4 reference march at dt = 0.0025
        if datum == "criterion_04":
            u0, t_final = bump_datum(), 5.0
        else:
            u0 = initial_data("sech", {"amplitude": 0.05, "width": 1.0}, make_grid(1024, 80.0))
            t_final = 10.0
        taylor_run = run(u0, EvolveConfig(b=b, t_final=t_final, sample_interval=0.5))
        references = [u0] + rk4_states(u0, b, 0.5, 200, samples=2 * int(t_final))
        assert len(taylor_run.snapshots) == len(references) == 2 * int(t_final) + 1
        for (t, a), ref in zip(taylor_run.snapshots, references):
            scale = np.max(np.abs(ref.samples))
            assert np.max(np.abs(a.samples - ref.samples)) <= 1e-12 * scale, t
        # a handful of series steps where RK4 takes hundreds
        assert len(taylor_run.spans) <= 4 * len(taylor_run.snapshots)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_sine_fixed_point(self, n):
        # at b = -1 sin x is steady: its coefficients beyond c_0 are round-off,
        # which sets the step, and the march keeps the state within 1e-12
        grid = make_grid(n, 2 * np.pi)
        u0 = RealField(grid, np.sin(grid.x))
        cfg = EvolveConfig(b=-1.0, t_final=2.0, sample_interval=0.5)
        traj = run(u0, cfg)
        for _, u in traj.snapshots:
            assert np.max(np.abs(u.samples - u0.samples)) < 1e-12
        assert len(traj.spans) < 40

    def test_vanishing_tail_gives_an_infinite_step(self):
        # the zero state: every coefficient is exactly 0
        grid = make_grid(64, 2 * np.pi)
        cfg = EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.5)
        march = evolve._TaylorMarch(RealField(grid, np.zeros(64)), 2.0, 1e6)
        assert march.propose() == math.inf
        # one series spans the run and gives every sample
        traj = run(RealField(grid, np.zeros(64)), cfg)
        assert traj.spans == [1.0]
        assert traj.dt_used == [0.0, 1.0, 1.0]

    def test_cut_series_steps_with_its_order_and_no_warning(self):
        # the series of 10 sin x reaches the coefficient cap at c_11: each
        # step uses c_0 .. c_10, and neither warning of the taylor module fires
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, 10.0 * np.sin(grid.x))
        K = evolve.TAYLOR_ORDER
        coeffs, sup = taylor._recursion(_Operator(u0, 2.0), np.empty((K + 2, 2, 64)))
        assert len(coeffs) == 10 and sup > taylor.COEFF_SUP_CAP
        march = evolve._TaylorMarch(u0, 2.0, 1e6)
        march.propose()
        assert len(march.coeffs) == 10
        cfg = EvolveConfig(b=2.0, t_final=0.01, sample_interval=0.005)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(u0, cfg)
        references = [u0] + rk4_states(u0, 2.0, 0.005, 250, samples=2)
        assert len(traj.spans) > 2 and len(traj.snapshots) == 3
        for (_, a), ref in zip(traj.snapshots, references):
            assert np.max(np.abs(a.samples - ref.samples)) <= 1e-12 * 10.0

    @pytest.mark.parametrize("amplitude", [1e5, 1e7])
    def test_series_cut_below_order_two_is_a_blowup(self, amplitude):
        # c_2 (1e5) or c_1 (1e7) of the sine passes the coefficient cap
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, amplitude * np.sin(grid.x))
        cfg = EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.5,
                           blowup_threshold=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError, match="Taylor series of the state stops") as excinfo:
                run(u0, cfg)
        err = excinfo.value
        assert (err.time, err.trajectory.spans) == (0.0, [])
        assert [t for t, _ in err.trajectory.snapshots] == [0.0]
        assert "blow-up may be genuine" in str(err)

    def test_non_finite_coefficient_is_a_blowup(self):
        # u^2 overflows in c_1: the series stops at order 0
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, 1e200 * np.sin(grid.x))
        cfg = EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.05,
                           blowup_threshold=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            BlowupError, match="stops at order 0"
        ) as excinfo:
            run(u0, cfg)
        assert excinfo.value.trajectory.snapshots[0][1] is u0

    def test_non_finite_peak_is_a_blowup(self):
        # a step far outside the series' disk overflows the Horner sum
        grid = make_grid(64, 2 * np.pi)
        march = evolve._TaylorMarch(RealField(grid, np.sin(grid.x)), 2.0, 1e300)
        march.propose()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            BlowupError, match="non-finite state after Taylor step"
        ):
            march.step(1e300)

    def test_peak_above_threshold_is_a_blowup(self):
        # the same b = 3 bump as the abort-time test: sup|u| passes 1.2
        u0 = bump_datum(n=1024, amplitude=1.0, width=5.0)
        cfg = EvolveConfig(b=3.0, t_final=5.0, sample_interval=0.5,
                           blowup_threshold=1.2)
        with pytest.raises(BlowupError, match="exceeded blow-up threshold") as excinfo:
            run(u0, cfg)
        err = excinfo.value
        assert 0.0 < err.time < 5.0
        assert len(err.trajectory.spans) > 0
        assert err.time >= err.trajectory.snapshots[-1][0]
        assert "not expected" in str(err)

    def test_step_that_does_not_advance_t_is_refused(self, monkeypatch):
        # a proposed step below the spacing of doubles at t ends the march
        # instead of looping forever
        propose = evolve._TaylorMarch.propose
        calls = []

        def shrinking(march):
            calls.append(propose(march))
            return calls[-1] if len(calls) == 1 else 1e-300

        monkeypatch.setattr(evolve._TaylorMarch, "propose", shrinking)
        # t_final lies beyond the first step, so a second series is needed
        cfg = EvolveConfig(b=2.0, t_final=2.0, sample_interval=0.25)
        with pytest.raises(BlowupError, match="does not advance t") as excinfo:
            run(bump_datum(n=128), cfg)
        err = excinfo.value
        assert err.trajectory.spans == [calls[0]]
        # the first step is the last completed, and it read every sample in
        # its window
        assert 0.0 < calls[0] < cfg.t_final
        assert err.time == calls[0]
        assert [t for t, _ in err.trajectory.snapshots] == [
            0.25 * k for k in range(int(calls[0] / 0.25) + 1)]

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_one_operator_per_run(self, monkeypatch, b):
        # criterion 04's bump: every step loads its state into the operator
        # the march built for the datum; both modules that build operators
        # are counted
        built = []

        def counted(*args):
            built.append(args)
            return _Operator(*args)

        for module in (evolve, taylor):
            monkeypatch.setattr(module, "_Operator", counted)
        traj = run(bump_datum(), EvolveConfig(b=b, t_final=5.0, sample_interval=0.5))
        assert len(traj.spans) >= 4
        assert len(built) == 1

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_propose_is_repeatable(self, b):
        # a second propose at one state gives the same step and rows, and
        # leaves the operator holding the state as a fresh build would
        u0 = bump_datum(n=256)
        march = evolve._TaylorMarch(u0, b, 1e6)
        march.step(0.5 * march.propose())
        h = march.propose()
        rows = np.array(march.coeffs)
        assert march.propose() == h
        assert np.array(march.coeffs).tobytes() == rows.tobytes()
        state = RealField(u0.grid, march.op.fields[0].copy())
        assert march.op.fields.tobytes() == _Operator(state, b).fields.tobytes()

    def test_run_step_budget(self, fft_counts):
        # one step, clipped to t_final: the datum load (2 transforms in 2
        # calls), 16 orders of 4 transforms in 2 calls and one combine, and
        # the load of the state at t_final (2 in 2), which the guard reads
        grid = make_grid(256, 80.0)
        u = RealField(grid, np.exp(-(((grid.x - 40.0) / 3.0) ** 2)))
        traj = run(u, EvolveConfig(b=2.0, t_final=0.01, sample_interval=0.01))
        assert len(traj.spans) == 1
        assert fft_counts == {"real": 2 + 4 * 16 + 2, "complex": 0, "calls": 2 + 2 * 16 + 2,
                              "combine": 16}

    def test_run_step_budget_at_b3(self, fft_counts):
        # one row: a load is 1 transform, an order 2 in 2 calls
        grid = make_grid(256, 80.0)
        u = RealField(grid, np.exp(-(((grid.x - 40.0) / 3.0) ** 2)))
        traj = run(u, EvolveConfig(b=3.0, t_final=0.01, sample_interval=0.01))
        assert len(traj.spans) == 1
        assert fft_counts == {"real": 1 + 2 * 16 + 1, "complex": 0, "calls": 1 + 2 * 16 + 1,
                              "combine": 16}


class TestDenseOutput:
    """Sample times are read from the series of the step whose window holds
    them; the steps depend on the state and t_final alone."""

    def test_steps_do_not_depend_on_the_sample_grid(self):
        u0 = bump_datum(n=256)
        runs = [run(u0, EvolveConfig(b=2.0, t_final=2.0, sample_interval=si))
                for si in (0.5, 1.0)]
        fine, coarse = ({t: u.samples.tobytes() for t, u in r.snapshots} for r in runs)
        assert list(coarse) == [0.0, 1.0, 2.0]
        assert all(fine[t] == coarse[t] for t in (1.0, 2.0))
        assert runs[0].spans == runs[1].spans

    def test_sample_read_is_the_series_summed_at_its_offset(self):
        # the datum's first step spans about 0.597: samples 0.25 and 0.5 are
        # read from the datum's series, 0.75 from the next step's
        u0 = bump_datum(n=128)
        h = evolve._TaylorMarch(u0, 2.0, 1e6).propose()
        assert 0.5 < h < 0.75
        traj = run(u0, EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.25))
        states = {t: u.samples.tobytes() for t, u in traj.snapshots}
        series = taylor_coeffs(u0, 2.0, evolve.TAYLOR_ORDER)
        for t_s in (0.25, 0.5):
            assert states[t_s] == taylor_eval(series, t_s).samples.tobytes()
        step_end = taylor_eval(series, h)
        later = taylor_coeffs(step_end, 2.0, evolve.TAYLOR_ORDER)
        assert states[0.75] == taylor_eval(later, 0.75 - h).samples.tobytes()

    def test_dt_used_are_step_spans_adding_up_to_t_final(self):
        cfg = EvolveConfig(b=2.0, t_final=2.0, sample_interval=0.25)
        traj = run(bump_datum(n=128), cfg)
        spans = traj.spans
        assert len(spans) >= 2
        assert traj.dt_used[0] == 0.0
        assert all(dt in spans for dt in traj.dt_used[1:])
        assert math.fsum(spans) == pytest.approx(cfg.t_final, abs=1e-12)

    def test_blowup_after_a_sample_read_keeps_the_sample(self):
        # the b = 3 bump's sup|u| grows: the step from about 2.447 to 2.538
        # reads the sample at 2.5 (sup about 1.088), and its end state (about
        # 1.094) passes the threshold 1.09
        u0 = bump_datum(n=1024, amplitude=1.0, width=5.0)
        cfg = EvolveConfig(b=3.0, t_final=5.0, sample_interval=0.5,
                           blowup_threshold=1.09)
        with pytest.raises(BlowupError, match="exceeded blow-up threshold") as excinfo:
            run(u0, cfg)
        err = excinfo.value
        t_last, u_last = err.trajectory.snapshots[-1]
        assert t_last == err.time == 2.5
        assert np.max(np.abs(u_last.samples)) <= cfg.blowup_threshold
        # the completed steps end before the sample, so the step that read it
        # is the one whose end state failed and is not in spans
        assert math.fsum(err.trajectory.spans) < err.time == 2.5
        assert "aborted at t = 2.5:" in str(err)

    def test_one_series_gives_several_samples_on_criterion_09(self):
        u0 = initial_data("sech", {"amplitude": 0.05, "width": 1.0}, make_grid(1024, 80.0))
        traj = run(u0, EvolveConfig(b=2.0, t_final=10.0, sample_interval=0.5))
        assert len(traj.spans) < len(traj.snapshots) - 1

    def test_horizon_below_the_landing_tolerance_takes_a_step(self):
        # t_final = 1e-13 lies below the landing tolerance 1e-12, and its one
        # sample is still a read of the datum's series
        grid = make_grid(64, 2 * np.pi)
        u0 = RealField(grid, 0.5 * np.sin(grid.x))
        traj = run(u0, EvolveConfig(b=2.0, t_final=1e-13, sample_interval=1e-13))
        assert len(traj.spans) >= 1
        assert [t for t, _ in traj.snapshots] == [0.0, 1e-13]
        assert all(dt > 0 for dt in traj.dt_used[1:])
        series = taylor_coeffs(u0, 2.0, evolve.TAYLOR_ORDER)
        assert traj.final_state.samples.tobytes() == taylor_eval(series, 1e-13).samples.tobytes()


class TestResolutionGuard:
    """Each state the march loads, the datum and every new state, passes
    unless the band's top third holds more than TAIL_TOL of its energy."""

    def test_unresolved_datum_aborts_at_t0(self):
        # sech of width 1 at N = 128 on L = 80 keeps 2.1e-3 of its band
        # energy in the top third
        u0 = initial_data("sech", {"amplitude": 0.25, "width": 1.0}, make_grid(128, 80.0))
        cfg = EvolveConfig(b=2.0, t_final=0.2, sample_interval=0.1)
        with pytest.raises(BlowupError) as excinfo:
            run(u0, cfg)
        err = excinfo.value
        assert str(err).startswith(
            "aborted at t = 0: the state is unresolved: band tail fraction 2.1e-03 exceeds "
            "1e-10; raise n_points")
        assert err.time == 0.0
        assert err.trajectory.spans == []
        assert err.trajectory.snapshots == [(0.0, u0)]

    def test_breaking_run_aborts_after_its_last_resolved_step(self):
        # Camassa-Holm wave breaking from sin x: the state at t ~ 0.90 is the
        # first unresolved one, and the 10 steps before it complete
        u0 = initial_data("sine", {"amplitude": 1.0}, make_grid(256, 2 * np.pi))
        cfg = EvolveConfig(b=2.0, t_final=3.0, sample_interval=0.5)
        with pytest.raises(BlowupError, match="the state is unresolved") as excinfo:
            run(u0, cfg)
        err = excinfo.value
        assert len(err.trajectory.spans) == 10
        assert err.time == pytest.approx(math.fsum(err.trajectory.spans), abs=1e-12)
        assert 0.8 < err.time < 0.9
        assert [t for t, _ in err.trajectory.snapshots] == [0.0, 0.5]
        assert "blow-up may be genuine" in str(err)

    @pytest.mark.parametrize("t_final, sample_interval", [(0.9, 0.5), (0.95, 0.02)])
    def test_every_recorded_state_is_resolved(self, t_final, sample_interval):
        # the same breaking sin x: the state at t_final = 0.9 (8.6e-10) and
        # the samples at 0.88 (2.5e-10) and 0.90 read from the series of the
        # step that ends unresolved are above TAIL_TOL, so the first run
        # aborts where the longer one does and the second records 0.86 last
        grid = make_grid(256, 2 * np.pi)
        u0 = initial_data("sine", {"amplitude": 1.0}, grid)
        cfg = EvolveConfig(b=2.0, t_final=t_final, sample_interval=sample_interval)
        with pytest.raises(BlowupError, match="the state is unresolved") as excinfo:
            run(u0, cfg)
        err = excinfo.value
        m = grid.band_size
        for _, u in err.trajectory.snapshots:
            band = np.fft.rfft(u.samples)[:m]
            top = band[2 * m // 3:]
            assert np.vdot(top, top).real <= evolve.TAIL_TOL * np.vdot(band, band).real
        # the abort time is the latest time whose state passed: the end of
        # the 10th step, or a later sample read from the 11th
        assert len(err.trajectory.spans) == 10
        *_, end = itertools.accumulate(err.trajectory.spans)
        last = err.trajectory.snapshots[-1][0]
        if sample_interval == 0.5:
            assert (err.time, last) == (end, 0.5)
        else:
            assert err.time == last == 43 * sample_interval > end

    @pytest.mark.parametrize("family, params, t_final, aborted_by", [
        ("sech", {"amplitude": 0.5, "width": 1.0}, 10.0, 3.0),
        ("momentum_bump", {"amplitude": 0.5, "width": 8.0}, 20.0, 13.0),
    ])
    def test_global_runs_abort_once_the_strip_outgrows_the_grid(
            self, family, params, t_final, aborted_by):
        # global b = 2 solutions whose strip shrinks until N = 1024 no longer
        # resolves it, at t ~ 2.5 and t ~ 12.5
        u0 = initial_data(family, params, make_grid(1024, 80.0))
        cfg = EvolveConfig(b=2.0, t_final=t_final, sample_interval=0.5,
                           require_sign_certificate=True)
        with pytest.raises(BlowupError, match="the state is unresolved") as excinfo:
            run(u0, cfg)
        assert 0.0 < excinfo.value.time < aborted_by
        assert "blow-up is not expected" in str(excinfo.value)

    @pytest.mark.parametrize("b", [-1.0, 0.0, 2.0, 3.0])
    def test_acceptance_data_clear_the_guard_by_three_decades(self, b, monkeypatch):
        # the criterion-04 and criterion-09 runs complete under a tolerance
        # three decades tighter, so every state they load reads at most 1e-13
        monkeypatch.setattr(evolve, "TAIL_TOL", 1e-13)
        for n, family, params, t_final in (
                (512, "momentum_bump", {"amplitude": 0.5, "width": 8.0}, 5.0),
                (1024, "sech", {"amplitude": 0.05, "width": 1.0}, 10.0)):
            u0 = initial_data(family, params, make_grid(n, 80.0))
            traj = run(u0, EvolveConfig(b=b, t_final=t_final, sample_interval=0.5))
            assert traj.snapshots[-1][0] == t_final

    def test_zero_state_is_resolved_at_any_tolerance(self, monkeypatch):
        # the comparison is tail > TAIL_TOL * total, so a zero band passes
        # where a tolerance of 0 refuses the round-off tail of sin x
        monkeypatch.setattr(evolve, "TAIL_TOL", 0.0)
        grid = make_grid(64, 2 * np.pi)
        zero = RealField(grid, np.zeros(64))
        traj = run(zero, EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.5))
        assert traj.final_state.samples.tobytes() == zero.samples.tobytes()
        with pytest.raises(BlowupError, match="aborted at t = 0: the state is unresolved"):
            run(RealField(grid, np.sin(grid.x)), EvolveConfig(b=2.0, t_final=1.0, sample_interval=0.5))

    def test_guard_reads_the_band_of_each_loaded_state(self, monkeypatch):
        # the datum and every new state, the state at t_final included,
        # before the recursion overwrites the band: the reading is the band
        # of rfft(state)
        u0 = initial_data("sech", {"amplitude": 0.05, "width": 1.0}, make_grid(1024, 80.0))
        read, check = [], evolve._check_resolved

        def logged(op):
            m = op.grid.band_size
            expected = np.fft.rfft(op.fields[0])[:m]
            assert np.array_equal(op.stage, expected)
            read.append(op.fields[0].copy())
            check(op)

        monkeypatch.setattr(evolve, "_check_resolved", logged)
        traj = run(u0, EvolveConfig(b=2.0, t_final=10.0, sample_interval=0.5))
        # the datum's reading and one per series, of the state it ends at
        assert len(read) == 1 + len(traj.spans)
        assert read[0].tobytes() == u0.samples.tobytes()
        assert read[-1].tobytes() == traj.final_state.samples.tobytes()


class TestOrderOfAccuracy:
    def test_rk4_richardson_ratio(self):
        # self-convergence against a dt/8 reference; order 4 gives ~16
        grid = make_grid(256, 80.0)
        u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)

        n0 = 10
        coarse = reference_march(u0, 2.0, 0.5, n0)
        medium = reference_march(u0, 2.0, 0.5, 2 * n0)
        reference = reference_march(u0, 2.0, 0.5, 8 * n0)
        e_coarse = np.linalg.norm(coarse - reference)
        e_medium = np.linalg.norm(medium - reference)
        assert 14.0 <= e_coarse / e_medium <= 18.0
