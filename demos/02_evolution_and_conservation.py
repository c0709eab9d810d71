"""Evolving the b-family equation and watching its conserved quantities.

The evolution law

    u_t = -u u_x - d/dx (1 - d^2/dx^2)^{-1} ( (b/2) u^2 + ((3-b)/2) u_x^2 )

conserves the mean of u for every b (both terms are exact derivatives), the
H^1 energy only at b = 2 (the Camassa-Holm case), and the L^1 norm of the
momentum m = u - u_xx whenever m never changes sign. The initial state here
is a momentum bump: u = (1 - d^2/dx^2)^{-1} m0 with m0 a non-negative
gaussian, so the sign hypothesis holds by construction.
"""

import numpy as np

from bfamlab import (
    EvolveConfig, conserved_mean, momentum_l1, momentum_min, run, sobolev_norm,
)
from bfamlab.scenarios import initial_data
from bfamlab.grid import make_grid

grid = make_grid(512, 80.0)
u0 = initial_data("momentum_bump", {"amplitude": 0.5, "width": 8.0}, grid)
print(f"initial datum: max|u| = {np.max(np.abs(u0.samples)):.4f}, "
      f"momentum min = {momentum_min(u0):.2e}\n")

for b in (0.0, 2.0, 3.0):
    cfg = EvolveConfig(
        b=b, t_final=5.0, dt_max=0.01, sample_interval=1.0,
        require_sign_certificate=True,
    )
    traj = run(u0, cfg)
    rows = [
        {"t": t, "mean_u": conserved_mean(u), "h1": sobolev_norm(u, 1.0),
         "m_l1": momentum_l1(u), "m_min": momentum_min(u)}
        for t, u in traj.snapshots
    ]
    first, last = rows[0], rows[-1]
    print(f"b = {b:g}")
    print(f"  {'t':>5} {'mean':>12} {'H1 energy':>12} {'|m|_L1':>12} {'min m':>12}")
    for row in rows:
        print(f"  {row['t']:>5.1f} {row['mean_u']:>12.8f} {row['h1']:>12.8f} "
              f"{row['m_l1']:>12.8f} {row['m_min']:>12.2e}")
    mean_drift = abs(last["mean_u"] - first["mean_u"]) / abs(first["mean_u"])
    h1_drift = abs(last["h1"] - first["h1"]) / first["h1"]
    ml1_drift = abs(last["m_l1"] - first["m_l1"]) / first["m_l1"]
    print(f"  relative drifts: mean {mean_drift:.2e}, H1 {h1_drift:.2e}, "
          f"|m|_L1 {ml1_drift:.2e}")
    if b == 2.0:
        print("  (H1 is conserved only here, at the Camassa-Holm point)")
    print()
