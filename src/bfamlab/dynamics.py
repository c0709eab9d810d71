"""Right-hand side of the b-family evolution law and its monitored functionals.

The evolution law is

    u_t = F(u) = -u u_x - d/dx (1 - d^2/dx^2)^{-1} ( (b/2) u^2 + ((3-b)/2) u_x^2 ),

a one-parameter family containing Camassa-Holm (b = 2) and
Degasperis-Procesi (b = 3). Quadratic products are formed in physical
space and their spectra dealiased before any further multiplier is applied.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, RealField, dft, helmholtz, helmholtz_inv, idft
from .norms import sobolev_norm


def _rhs_from_products(grid: GridSpec, b: float, advect: np.ndarray, square: np.ndarray, dsquare: np.ndarray) -> np.ndarray:
    """Band of -advect - d/dx Helmholtz^{-1}((b/2) square + ((3-b)/2) dsquare).

    The three inputs are physical-space products (u*v_x, u*v, u_x*v_x style).
    Returns the first grid.band_size entries of the unnormalised rfft of the
    result: only the dealiased band of each product spectrum is used, so
    np.fft.irfft(band, N) zero-pads it back to samples. Shared by the direct
    RHS evaluation, the RK4 stages and the time-Taylor recursion so all
    follow one code path.
    """
    m = grid.band_size
    q = 0.5 * b * square + 0.5 * (3.0 - b) * dsquare
    return -(np.fft.rfft(advect)[:m] + grid.band_nonlocal_multiplier * np.fft.rfft(q)[:m])


def _rhs_band(grid: GridSpec, b: float, u_hat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Band of F(u), given the samples u and their half spectrum u_hat = rfft(u)."""
    ux = np.fft.irfft(grid.half_deriv_multiplier * u_hat, grid.n_points)
    return _rhs_from_products(grid, b, u * ux, u * u, ux * ux)


def rhs_F(u: RealField, b: float) -> RealField:
    """Evaluate F(u) pseudo-spectrally with dealiased quadratic products."""
    if not np.isfinite(b):
        raise ConfigurationError(f"b must be finite, got {b}")
    grid = u.grid
    band = _rhs_band(grid, b, np.fft.rfft(u.samples), u.samples)
    return RealField(grid, np.fft.irfft(band, grid.n_points))


def momentum(u: RealField) -> RealField:
    """Momentum density m = u - u_xx, via the multiplier (1 + xi^2)."""
    return idft(helmholtz(dft(u)))


def inverse_momentum(m: RealField) -> RealField:
    """The u with momentum(u) = m; smoothing inverse of the Helmholtz operator."""
    return idft(helmholtz_inv(dft(m)))


def conserved_mean(u: RealField) -> float:
    """Exact spectral quadrature of the integral of u over the box, L*u_hat[0].

    Both terms of the evolution law are exact x-derivatives (the advective
    term is -(u^2/2)_x), so this functional is conserved for every b.
    """
    return u.grid.box_length * float(np.mean(u.samples))


def h1_energy(u: RealField) -> float:
    """Integral of u^2 + u_x^2: L * sum_k (1 + xi_k^2) |u_hat[k]|^2.

    Conserved by the flow only at b = 2.
    """
    return sobolev_norm(u, 1.0) ** 2


def momentum_l1(u: RealField) -> float:
    """Periodic trapezoid quadrature of |m|, m = u - u_xx.

    Conserved by the flow whenever m never changes sign.
    """
    m = momentum(u)
    return u.grid.dx * float(np.sum(np.abs(m.samples)))


def momentum_min(u: RealField) -> float:
    """Grid minimum of the momentum density; sign certificate for m >= 0.

    Spectral data cannot certify pointwise sign between nodes; treat values
    above roughly -1e-10 * max|m| as non-negative.
    """
    return float(np.min(momentum(u).samples))


def momentum_max(u: RealField) -> float:
    """Grid maximum of the momentum density; sign certificate for m <= 0."""
    return float(np.max(momentum(u).samples))
