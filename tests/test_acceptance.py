"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Every tolerance is fixed here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import i0

from bfamlab import (
    EvolveConfig,
    RealField,
    fit_decay_radius,
    gevrey_norm,
    hm_norm,
    initial_data,
    km_bound_from_run,
    km_bound_radius,
    km_bound_sigma,
    km_constants,
    km_lambda,
    km_phi,
    make_grid,
    momentum,
    rhs_F,
    run,
    sobolev_norm,
    taylor_coeffs,
    taylor_eval,
)
from bfamlab.grid import _irfft, _rfft
from bfamlab.scenarios import DiagnosticsSpec, compute_diagnostics
from conftest import fft_frequencies, planted_field, reference_march


def report(number, ok, detail):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_spectral_infrastructure():
    grid = make_grid(4096, 2 * np.pi)
    rng = np.random.default_rng(7)
    f = RealField(grid, rng.standard_normal(4096))
    half = grid.n_points // 2 + 1
    start = time.perf_counter()
    f_hat = _rfft(f.samples, np.empty(half, dtype=complex))
    round_trip = np.max(np.abs(_irfft(f_hat, np.empty(grid.n_points)) - f.samples))
    u_hat = f_hat / grid.n_points
    back = (u_hat * (1.0 + grid.xi**2)) * grid.helmholtz_inv_multiplier
    helm = np.max(np.abs(back - u_hat))
    elapsed = time.perf_counter() - start
    ok = round_trip < 1e-12 and helm < 1e-13 and elapsed < 1.0
    report(1, ok, f"round trip {round_trip:.2e}, inverse {helm:.2e}, {elapsed:.3f}s at N=4096")


def test_criterion_02_rhs_closed_form():
    grid = make_grid(128, 2 * np.pi)
    u = RealField(grid, np.sin(grid.x))
    worst = 0.0
    for b in (-1.0, 0.0, 2.0, 3.0, 5.5):
        expected = -((1.0 + b) / 5.0) * np.sin(2 * grid.x)
        worst = max(worst, float(np.max(np.abs(rhs_F(u, b).samples - expected))))
    steady = float(np.max(np.abs(rhs_F(u, -1.0).samples)))
    ok = worst < 1e-12 and steady < 1e-12
    report(2, ok, f"max deviation {worst:.2e} over b grid, steady state {steady:.2e}")


def test_criterion_03_quadratic_scaling():
    grid = make_grid(64, 2 * np.pi)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        u = RealField(grid, rng.standard_normal(64))
        alpha = float(rng.uniform(-3.0, 3.0))
        lhs = rhs_F(RealField(grid, alpha * u.samples), 1.7).samples
        rhs = alpha**2 * rhs_F(u, 1.7).samples
        scale = np.max(np.abs(rhs)) or 1.0
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    ok = worst < 1e-12
    report(3, ok, f"worst relative deviation {worst:.2e} over 50 pairs")


# the momentum bump is an entire function: its spectrum falls faster than any
# exponential, so the decay fit's super-exponential warning is right here
@pytest.mark.filterwarnings("ignore:spectral decay steepens with:UserWarning")
def test_criterion_04_conservation_at_desk_scale():
    grid = make_grid(512, 80.0)
    u0 = initial_data("momentum_bump", {"amplitude": 0.5, "width": 8.0}, grid)
    failures = []
    details = []
    for b in (-1.0, 0.0, 2.0, 3.0):
        cfg = EvolveConfig(
            b=b, t_final=5.0, sample_interval=0.5,
            require_sign_certificate=True,
        )
        start = time.perf_counter()
        traj = run(u0, cfg)
        table, _ = compute_diagnostics(traj, DiagnosticsSpec())
        elapsed = time.perf_counter() - start
        mean, m_l1 = table["mean_u"], table["m_l1"]
        mean_drift = abs(mean[-1] - mean[0]) / abs(mean[0])
        ml1_drift = max(abs(m_l1 - m_l1[0])) / m_l1[0]
        m_inf = max(np.max(np.abs(momentum(u).samples)) for _, u in traj.snapshots)
        m_min_worst = min(table["m_min"])
        checks = {
            "mean": mean_drift < 1e-10,
            "m_l1": ml1_drift < 1e-4,
            "sign": m_min_worst >= -1e-6 * m_inf,
            "time": elapsed < 120.0,
        }
        if b == 2.0:
            h1 = table["h1"]
            h1_drift = abs(h1[-1] - h1[0]) / h1[0]
            checks["h1"] = h1_drift < 1e-6
            details.append(f"b=2 h1 drift {h1_drift:.2e}")
        details.append(f"b={b:g} mean {mean_drift:.1e} mL1 {ml1_drift:.1e} {elapsed:.1f}s")
        failures.extend(name for name, passed in checks.items() if not passed)
    ok = not failures
    report(4, ok, "; ".join(details) + (f"; failed: {failures}" if failures else ""))


def test_criterion_05_rk4_self_convergence():
    grid = make_grid(256, 80.0)
    u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)

    n0 = 10
    coarse = reference_march(u0, 2.0, 0.5, n0)
    medium = reference_march(u0, 2.0, 0.5, 2 * n0)
    reference = reference_march(u0, 2.0, 0.5, 8 * n0)
    ratio = float(np.linalg.norm(coarse - reference) / np.linalg.norm(medium - reference))
    ok = 14.0 <= ratio <= 18.0
    report(5, ok, f"Richardson ratio {ratio:.2f} (order-4 target 16)")


def test_criterion_06_taylor_stepper_equivalence():
    grid = make_grid(256, 80.0)
    u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
    t = 0.01
    worst = 0.0
    for b in (2.0, 3.0):
        series = taylor_coeffs(u0, b, 16)
        # the RK4 reference march: 2000 steps of t / 2000
        endpoint = RealField(grid, reference_march(u0, b, t, 2000))
        approx = taylor_eval(series, t)
        rel = sobolev_norm(
            RealField(grid, approx.samples - endpoint.samples), 0.0
        ) / sobolev_norm(endpoint, 0.0)
        worst = max(worst, rel)

    sine_grid = make_grid(256, 2 * np.pi)
    s0 = initial_data("sine", {"amplitude": 1.0, "mode": 1}, sine_grid)
    sine_series = taylor_coeffs(s0, -1.0, 16)
    sine_taylor = float(np.max(np.abs(taylor_eval(sine_series, t).samples - s0.samples)))
    sine_rk4 = float(np.max(np.abs(reference_march(s0, -1.0, t, 2000) - s0.samples)))
    ok = worst < 1e-8 and sine_taylor < 1e-12 and sine_rk4 < 1e-12
    report(
        6,
        ok,
        f"gaussian rel diff {worst:.2e}; sine fixed point "
        f"taylor {sine_taylor:.2e} rk4 {sine_rk4:.2e}",
    )


def test_criterion_07_radius_estimator_calibration():
    grid = make_grid(256, 2 * np.pi)
    planted = fit_decay_radius(planted_field(grid, np.exp(-0.5 * np.abs(fft_frequencies(grid)[1]))))
    planted_err = abs(planted.sigma_hat - 0.5)

    sech_grid = make_grid(2048, 80.0)
    u = initial_data("sech", {"amplitude": 1.0, "width": 1.0}, sech_grid)
    sech_fit = fit_decay_radius(u)
    sech_rel = abs(sech_fit.sigma_hat - np.pi / 2) / (np.pi / 2)
    ok = planted_err < 1e-6 and sech_rel < 0.02
    report(7, ok, f"planted error {planted_err:.2e}, sech off by {100 * sech_rel:.3f}%")


def test_criterion_08_km_bound_machinery():
    rng = np.random.default_rng(23)
    formula_worst = 0.0
    for _ in range(20):
        b = float(rng.uniform(-4, 6))
        p = float(rng.uniform(0, 3))
        q = float(rng.uniform(0, 3))
        a_val, b_val = km_constants(b, p, q)
        a_ref = (32 + 16 * abs(b) + 64 * abs(3 - b)) * p
        b_ref = (64 + 32 * abs(b) + 256 * abs(3 - b)) * (1 + p) * math.sqrt(q)
        formula_worst = max(formula_worst, abs(a_val - a_ref), abs(b_val - b_ref))

    ode_worst = 0.0
    for b, mu, phi0 in ((2.0, 1.7, 0.9), (-1.0, 2.3, 4.0), (3.0, 1.2, 0.5)):
        gamma = -0.1
        a_rate, _ = km_constants(b, mu, phi0)
        lam = km_lambda(b, mu, phi0)
        T = 2.0 / a_rate
        steps = 20000
        h = T / steps

        def rates(state):
            _, p = state
            return np.array([-km_constants(b, mu, p)[1], a_rate * p])

        y = np.array([gamma, phi0])
        for _ in range(steps):
            k1 = rates(y)
            k2 = rates(y + 0.5 * h * k1)
            k3 = rates(y + 0.5 * h * k2)
            k4 = rates(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        closed = gamma - lam * (math.exp(a_rate * T / 2) - 1.0)
        ode_worst = max(ode_worst, abs(y[0] - closed) / abs(closed))

    from bfamlab import KMBound

    bound = KMBound(b=2.0, mu=1.5, K_rate=km_constants(2.0, 1.5, 1.0)[0],
                    gamma=-0.2, lam=km_lambda(2.0, 1.5, 1.0), phi0=1.0)
    ts = np.linspace(0.0, 0.1, 50)
    sigmas = [km_bound_sigma(t, bound) for t in ts]
    decreasing = all(s2 < s1 for s1, s2 in zip(sigmas, sigmas[1:]))
    ok = formula_worst == 0.0 and ode_worst < 1e-6 and decreasing
    report(
        8,
        ok,
        f"formula deviation {formula_worst:.1e}, ODE-vs-closed-form {ode_worst:.2e}, "
        f"sigma decreasing: {decreasing}",
    )


def test_criterion_09_empirical_global_analyticity():
    grid = make_grid(1024, 80.0)
    u0 = initial_data("sech", {"amplitude": 0.05, "width": 1.0}, grid)
    start = time.perf_counter()
    failures = []
    details = []
    for b in (-1.0, 0.0, 2.0, 3.0):
        cfg = EvolveConfig(
            b=b, t_final=10.0, sample_interval=0.5,
            require_sign_certificate=True,
        )
        traj = run(u0, cfg)
        fits = [fit_decay_radius(u) for _, u in traj.snapshots]
        bound = km_bound_from_run(traj, gamma=-0.1)
        sigma_min = min(fit.sigma_hat for fit in fits)
        quality_min = min(fit.fit_quality for fit in fits)
        above_bound = all(
            fit.sigma_hat >= km_bound_radius(t, bound)
            for fit, (t, _) in zip(fits, traj.snapshots)
        )
        if not (sigma_min > 0 and quality_min > 0.99 and above_bound):
            failures.append(b)
        details.append(f"b={b:g} sigma_min {sigma_min:.3f} R2_min {quality_min:.4f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    report(9, ok, "; ".join(details) + f"; total {elapsed:.1f}s"
           + (f"; failed b: {failures}" if failures else ""))


def test_criterion_10_norm_identities():
    grid = make_grid(64, 2 * np.pi)
    rng = np.random.default_rng(31)
    u = RealField(grid, rng.standard_normal(64))
    sine = RealField(grid, np.sin(grid.x))

    gevrey_dev = max(
        abs(gevrey_norm(u, 0.0, s).value - sobolev_norm(u, s))
        / sobolev_norm(u, s)
        for s in (0.0, 1.0, 2.0)
    )
    phi0_dev = abs(km_phi(u, 0.7, 0) - 0.5 * sobolev_norm(u, 2.0) ** 2) / km_phi(u, 0.7, 0)
    bessel_dev = max(
        abs(km_phi(sine, sigma, 60) - 2 * np.pi * i0(2 * np.exp(sigma)))
        / (2 * np.pi * i0(2 * np.exp(sigma)))
        for sigma in (-1.0, 0.0, 0.3)
    )
    hm_dev = max(
        abs(hm_norm(sine, 1.0, m) - 4.5 * 2**m * math.sqrt(np.pi))
        / (4.5 * 2**m * math.sqrt(np.pi))
        for m in (2, 3)
    )
    ok = gevrey_dev < 1e-15 and phi0_dev < 1e-12 and bessel_dev < 1e-10 and hm_dev < 1e-10
    report(
        10,
        ok,
        f"gevrey-sobolev {gevrey_dev:.1e}, phi_m0 {phi0_dev:.1e}, "
        f"bessel {bessel_dev:.1e}, hm {hm_dev:.1e}",
    )
