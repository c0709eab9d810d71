"""The analytic-in-time local solution as a power series.

Substituting u(t, x) = sum_k c_k(x) t^k into the evolution law turns the
quadratic right-hand side into a Cauchy-product recursion for the c_k. The
series converges on a disk whose radius we estimate with a root test, and
well inside that disk (radius/8) it solves the evolution law to near machine
precision: its defect p'(t) - F(p(t)), the derivative of the summed series
less the right-hand side at it, is round-off.
"""

import numpy as np

from bfamlab import (
    RealField,
    rhs_F,
    sobolev_norm,
    taylor_coeffs,
    taylor_eval,
    time_radius_estimate,
)
from bfamlab.scenarios import initial_data
from bfamlab.grid import make_grid

grid = make_grid(256, 80.0)
u0 = initial_data("gaussian", {"amplitude": 1.0, "width": 5.0}, grid)
b = 2.0

series = taylor_coeffs(u0, b, 16)
print("coefficient L2 norms (growth rate ~ 1/radius):")
for k, c in enumerate(series.coeffs):
    print(f"  |c_{k:2d}| = {sobolev_norm(c, 0.0):.4e}")

rho = time_radius_estimate(series)
print(f"\nroot-test temporal radius: {rho:.4f}")

# the series' defect inside the certified disk, scaled by t / |p|: the
# derivative of the summed series against the evolution law at it
for t in (rho / 8, rho / 4):
    p = taylor_eval(series, t)
    dp = np.zeros(grid.n_points)  # sum_k k c_k t^(k-1) in Horner form
    for k in range(series.order, 0, -1):
        dp = dp * t + k * series.rows[k]
    defect = sobolev_norm(RealField(grid, dp - rhs_F(p, b).samples), 0.0)
    scaled = t * defect / sobolev_norm(p, 0.0)
    print(f"  t = {t:.4f} (= radius/{rho / t:.0f}): scaled L2 defect {scaled:.2e}")

# the steady case: at b = -1 a plain sine is a fixed point, so every
# coefficient beyond c_0 vanishes and the radius is effectively infinite
sine_grid = make_grid(64, 2 * np.pi)
s0 = initial_data("sine", {"amplitude": 1.0, "mode": 1}, sine_grid)
steady = taylor_coeffs(s0, -1.0, 8)
worst = np.max(np.abs(steady.rows[1:]))
print(f"\nb = -1, sin(x) datum: max |c_k| for k >= 1 is {worst:.2e} (steady state)")
