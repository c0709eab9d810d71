"""Gallery of the analyticity-grade norms on hand-picked fields.

Three families of functionals, in increasing sensitivity to smoothness:

* sobolev_norm(u, s): polynomial frequency weight (1 + xi^2)^s;
* gevrey_norm(u, sigma, s): exponential weight e^{2 sigma |xi|}, finite only
  while sigma is below the field's strip of analyticity;
* hm_norm / km_phi: factorially weighted derivative sums, the machinery
  behind the strip-persistence bound.
"""

import numpy as np

from bfamlab import (
    RealField,
    gevrey_norm,
    hm_norm,
    km_phi,
    km_radius_norm,
    make_grid,
    sobolev_norm,
)

grid = make_grid(256, 2 * np.pi)
sine = RealField(grid, np.sin(grid.x))

# --- Sobolev ladder ---------------------------------------------------------
print("Sobolev norms of sin(x):")
for s in (0.0, 1.0, 2.0):
    print(f"  s = {s:.0f}: {sobolev_norm(sine, s):.6f} "
          f"(closed form {np.sqrt(np.pi) * 2 ** (s / 2):.6f})")
print()

# --- Gevrey weight and the divergence verdict -------------------------------
# A field with spectrum e^{-0.2 |xi|} is analytic on a strip of half-width
# 0.2; weights with sigma below that converge, above it they diverge. The
# field is the irfft of its half spectrum, the modes k = 0 .. N/2.
n = grid.n_points
planted = RealField(grid, np.fft.irfft(n * np.exp(-0.2 * np.abs(grid.xi[: n // 2 + 1])), n))
for sigma in (0.1, 0.3):
    value, diverged = gevrey_norm(planted, sigma, 2.0)
    verdict = "diverged" if diverged else "finite"
    print(f"gevrey norm at sigma = {sigma}: {value:.4e} ({verdict})")
print()

# --- factorially weighted norms ---------------------------------------------
# For sin(x) each derivative has the same H^{2m} norm, so both sums have
# closed forms: the sup lands on j = 2, and the phi series sums to a Bessel
# function.
m = 2
print(f"hm_norm(sin, sigma=1, m={m}) = {hm_norm(sine, 1.0, m):.6f} "
      f"(closed form {4.5 * 2**m * np.sqrt(np.pi):.6f})")
sigma = 0.3
print(f"km_phi(sin, sigma={sigma}, m=60) = {km_phi(sine, sigma, 60):.6f} "
      f"(Bessel identity {2 * np.pi * np.i0(2 * np.exp(sigma)):.6f})")
print(f"km_radius_norm(sin, sigma={sigma}) = {km_radius_norm(sine, sigma):.6f}")
