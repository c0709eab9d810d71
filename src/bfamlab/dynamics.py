"""Right-hand side of the b-family evolution law and its monitored functionals.

The evolution law, in conservative form, is

    u_t = F(u) = -d/dx [ u^2/2 + (1 - d^2/dx^2)^{-1} ( (b/2) u^2 + ((3-b)/2) u_x^2 ) ],

a one-parameter family containing Camassa-Holm (b = 2) and
Degasperis-Procesi (b = 3). The squares u^2 and u_x^2 are formed in
physical space and their spectra dealiased before any further multiplier
is applied. On the band, -F is then A rfft(u^2) + B rfft(u_x^2) with

    A = i xi (1/2 + (b/2) / (1 + xi^2)),    B = i xi ((3-b)/2) / (1 + xi^2),

built once per b by `_band_multipliers`; both vanish at xi = 0, so the mean
of u never moves. One combine, `_rhs_from_products`, serves `rhs_F`, every
RK4 stage of `evolve` and every order of the `taylor` recursion; b enters
nowhere else. It returns the band of -F, so it ends on an add and no
negation: callers subtract it, or divide it by a negative number, where
they would have added F. With `band` given, a combine allocates nothing:
4 numpy calls, one of them the grid's rfft kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import require_finite
from .grid import GridSpec, RealField, _irfft, _rfft
from .norms import sobolev_norm


def _band_multipliers(grid: GridSpec, b: float) -> np.ndarray:
    """The pair [A, B] of band multipliers of -F at this b, a (2, band_size) array."""
    nonlocal_, deriv = grid.band_nonlocal_multiplier, grid.half_deriv_multiplier[: grid.band_size]
    return np.array([0.5 * (deriv + b * nonlocal_), (0.5 * (3.0 - b)) * nonlocal_])


def _rhs_from_products(multipliers, squares: np.ndarray, out: np.ndarray, band=None) -> np.ndarray:
    """Band of A rfft(squares[0]) + B rfft(squares[1]), i.e. of -F.

    `multipliers` is the pair [A, B] of `_band_multipliers`, and `squares`
    the rows [u^2, u_x^2] or their Cauchy sums. One stacked rfft writes
    their spectra into `out`, a complex (2, N/2+1) array whose row 1 then
    serves as work space. The result, the first m = multipliers.shape[1]
    entries of the unnormalised rfft of -F, is written into `band` when
    given and returned; the irfft of -band to N points zero-pads it back to
    the samples of F.
    """
    m = multipliers.shape[1]
    spectra = _rfft(squares, out)
    band = np.multiply(multipliers[0], spectra[0, :m], out=band)
    dsquare = np.multiply(multipliers[1], spectra[1, :m], out=spectra[1, :m])
    return np.add(band, dsquare, out=band)


def rhs_F(u: RealField, b: float) -> RealField:
    """Evaluate F(u) pseudo-spectrally with dealiased quadratic products."""
    require_finite("b", b)
    grid = u.grid
    n, u = grid.n_points, u.samples
    spectra = np.empty((2, n // 2 + 1), dtype=complex)
    ux = _irfft(grid.half_deriv_multiplier * _rfft(u, spectra[0]), np.empty(n))
    band = _rhs_from_products(_band_multipliers(grid, b), np.array([u * u, ux * ux]), out=spectra)
    return RealField(grid, _irfft(-band, np.empty(n)))


def _helmholtz_half(u: RealField, apply) -> RealField:
    """u with its half spectrum divided (np.divide) or multiplied (np.multiply) by 1/(1 + xi^2)."""
    n = u.grid.n_points
    spectrum = _rfft(u.samples, np.empty(n // 2 + 1, dtype=complex))
    apply(spectrum, u.grid.helmholtz_inv_multiplier[: n // 2 + 1], out=spectrum)
    return RealField(u.grid, _irfft(spectrum, np.empty(n)))


def momentum(u: RealField) -> RealField:
    """Momentum density m = u - u_xx, via the multiplier (1 + xi^2)."""
    return _helmholtz_half(u, np.divide)


def inverse_momentum(m: RealField) -> RealField:
    """The u with momentum(u) = m; smoothing inverse of the Helmholtz operator."""
    return _helmholtz_half(m, np.multiply)


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


def momentum_l1(u: RealField, m: Optional[RealField] = None) -> float:
    """Periodic trapezoid quadrature of |m|, m = u - u_xx.

    Conserved by the flow whenever m never changes sign. A caller that
    already holds momentum(u) passes it as m.
    """
    m = momentum(u) if m is None else m
    return u.grid.dx * float(np.sum(np.abs(m.samples)))


def momentum_min(u: RealField, m: Optional[RealField] = None) -> float:
    """Grid minimum of the momentum density; sign certificate for m >= 0.

    Spectral data cannot certify pointwise sign between nodes; treat values
    above roughly -1e-10 * max|m| as non-negative. A caller that already
    holds momentum(u) passes it as m.
    """
    m = momentum(u) if m is None else m
    return float(np.min(m.samples))


def momentum_max(u: RealField) -> float:
    """Grid maximum of the momentum density; sign certificate for m <= 0."""
    return float(np.max(momentum(u).samples))
