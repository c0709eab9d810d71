"""Tracking the radius of spatial analyticity against its theoretical bound.

Two curves per run:

* sigma_hat(t): the measured exponential decay rate of the Fourier
  coefficients, i.e. the visible strip of analyticity of u(t, .);
* r(t) = e^{sigma(t)} with sigma(t) = gamma - lambda (e^{A(mu) t/2} - 1):
  the explicit a-priori lower bound on the strip, built from the H^2 history
  of the run (mu), the strip functional of the datum (phi0 at sigma = gamma),
  and the rates A, B.

The bound's constants are crude, so r(t) collapses quickly; the point of the
comparison is that the measured radius must stay above it, and must stay
positive, for every b once the momentum is sign-definite.
"""

import numpy as np

from bfamlab import EvolveConfig, km_bound_radius, run
from bfamlab.scenarios import DiagnosticsSpec, compute_diagnostics, initial_data
from bfamlab.grid import make_grid

grid = make_grid(1024, 80.0)
u0 = initial_data("sech", {"amplitude": 0.05, "width": 1.0}, grid)
print("datum: 0.05 sech(x - 40); spectrum decays at rate pi/2 = 1.5708\n")

for b in (0.0, 2.0):
    cfg = EvolveConfig(
        b=b, t_final=10.0, dt_max=0.02, sample_interval=2.0,
        require_sign_certificate=True,
    )
    traj = run(u0, cfg)
    rows, bound = compute_diagnostics(traj, DiagnosticsSpec())
    print(f"b = {b:g}: mu = {bound.mu:.4f}, K = A(mu) = {bound.K_rate:.2f}, "
          f"gamma = {bound.gamma:.4f}, lambda = {bound.lam:.2f}")
    print(f"  {'t':>5} {'sigma_hat':>10} {'R^2':>8} {'bound r(t)':>12}")
    for row in rows:
        r_bound = km_bound_radius(row.t, bound)
        print(f"  {row.t:>5.1f} {row.sigma_hat:>10.4f} {row.fit_quality:>8.4f} "
              f"{r_bound:>12.4e}")
    ok = all(
        row.sigma_hat > 0 and row.sigma_hat >= km_bound_radius(row.t, bound)
        for row in rows
    )
    print(f"  measured radius stayed positive and above the bound: {ok}\n")
