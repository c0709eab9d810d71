"""Tour of the spectral layer: grids, half spectra, derivatives, the Helmholtz
pair, and dealiasing.

The package works on a periodic box [0, L) with N equispaced nodes, and all
spectral coefficients follow the Fourier-series convention: u_hat[k] is the
coefficient of exp(i * 2 pi k x / L), so a plain cosine has coefficients 1/2
at k = +-1 and Parseval reads L * sum |u_hat|^2 = integral of u^2. The
fields are real, so u_hat[-k] is the conjugate of u_hat[k] and the package
keeps the half spectrum k = 0 .. N/2, numpy.fft.rfft(u) / N.
"""

import numpy as np

from bfamlab import (
    RealField,
    inverse_momentum,
    make_grid,
    momentum,
    rhs_F,
    sobolev_norm,
)

grid = make_grid(64, 2 * np.pi)
n = grid.n_points
print(f"grid: N = {n}, L = {grid.box_length:.4f}, dx = {grid.dx:.4f}")
print(f"the half spectrum holds modes k = 0 .. {n // 2}, "
      f"frequencies 0 .. {abs(grid.xi[n // 2]):.0f}\n")

# --- the half spectrum ------------------------------------------------------
u = RealField(grid, np.cos(grid.x))
u_hat = np.fft.rfft(u.samples) / n
print("cos(x): |u_hat| at k = 0, 1, 2:", [f"{abs(u_hat[k]):.3f}" for k in (0, 1, 2)])

round_trip = np.max(np.abs(np.fft.irfft(u_hat * n, n) - u.samples))
print(f"round-trip error: {round_trip:.2e}")

# the conjugate modes +-k enter once, with pair weight 2
pair = np.full(u_hat.size, 2.0)
pair[[0, -1]] = 1.0
parseval = grid.box_length * np.sum(pair * np.abs(u_hat) ** 2)
print(f"Parseval: L sum p |u_hat|^2 = {parseval:.6f}, "
      f"sobolev_norm(u, 0)^2 = {sobolev_norm(u, 0.0) ** 2:.6f} (pi)\n")

# --- spectral differentiation -----------------------------------------------
# d/dx multiplies mode k by i xi_k; the sign-ambiguous Nyquist entry is zeroed
v = RealField(grid, np.sin(grid.x))
dv = np.fft.irfft(grid.half_deriv_multiplier * np.fft.rfft(v.samples), n)
print(f"max |d/dx sin - cos| = {np.max(np.abs(dv - np.cos(grid.x))):.2e}\n")

# --- the Helmholtz pair -------------------------------------------------------
# momentum(u) = u - u_xx multiplies mode k by 1 + xi^2, inverse_momentum
# divides by it; applying one then the other is the identity
w = RealField(grid, np.cos(2 * grid.x))
print(f"momentum(cos 2x) = 5 cos(2x): error "
      f"{np.max(np.abs(momentum(w).samples - 5 * np.cos(2 * grid.x))):.2e}")
smoothed = inverse_momentum(w)
print(f"inverse_momentum(cos 2x) = cos(2x)/5: error "
      f"{np.max(np.abs(smoothed.samples - np.cos(2 * grid.x) / 5)):.2e}")
identity = inverse_momentum(momentum(w))
print(f"inverse of forward operator: error "
      f"{np.max(np.abs(identity.samples - w.samples)):.2e}\n")

# --- dealiasing ---------------------------------------------------------------
# sin(5x)^2 contains mode 10; on a 16-point grid that aliases onto k = 6.
# The 2/3 rule keeps the band k = 0 .. band_size - 1, which drops the alias.
coarse = make_grid(16, 2 * np.pi)
f = np.sin(5 * coarse.x)
raw = np.fft.rfft(f * f) / coarse.n_points
print(f"sin(5x)^2 on N=16: band k = 0 .. {coarse.band_size - 1}, "
      f"aliased mode 6 holds {abs(raw[6]):.3f} and is cut")
print("mean (k=0) is kept:", f"{raw[0].real:.3f}")

# rhs_F forms u^2 and u_x^2 in physical space and cuts their spectra to the
# band; on sin x it gives the closed form F = -((1+b)/5) sin 2x
for b in (0.0, 2.0, 3.0):
    error = np.max(np.abs(rhs_F(v, b).samples + (1 + b) / 5 * np.sin(2 * grid.x)))
    print(f"rhs_F(sin x, b={b:.0f}) against -((1+b)/5) sin 2x: error {error:.2e}")
