"""Right-hand side of the b-family evolution law and its monitored functionals.

The evolution law is

    u_t = F(u) = -u u_x - d/dx (1 - d^2/dx^2)^{-1} ( (b/2) u^2 + ((3-b)/2) u_x^2 ),

a one-parameter family containing Camassa-Holm (b = 2) and
Degasperis-Procesi (b = 3). Quadratic products are formed in physical
space and their spectra dealiased before any further multiplier is applied.

One combine, `_rhs_from_products`, takes the physical-space products
u u_x, u^2 and u_x^2 as the rows of one (3, N) array, forms the weighted
row (b/2) u^2 + ((3-b)/2) u_x^2 in place and turns the two rows
[u u_x, weighted] into a band with one stacked rfft. `rhs_F`, every RK4
stage of `evolve` and every order of the `taylor` recursion go through it;
the b-weighting lives nowhere else.

The combine returns the band of -F = u u_x + d/dx Helmholtz^{-1}(...), the
sum of the two transformed rows, so it ends on an add and no negation:
callers subtract it, or divide it by a negative number, where they would
have added F. Negation is exact in floating point, so the results are those
of adding F bit for bit, except that an exact zero may change sign. The
product spectra go into caller-given `out`; with `band` given for the
result too, a combine allocates nothing: 8 numpy calls, one of them the
grid's rfft kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import require_finite
from .grid import GridSpec, RealField, _irfft, _rfft, dft, helmholtz, helmholtz_inv, idft
from .norms import sobolev_norm


def _rhs_from_products(
    grid: GridSpec, b: float, products: np.ndarray, out: np.ndarray, band=None
) -> np.ndarray:
    """Band of advect + d/dx Helmholtz^{-1} ((b/2) square + ((3-b)/2) dsquare), i.e. of -F.

    `products` is a (3, N) array with rows [advect, square, dsquare]: the
    physical-space products u u_x, u^2 and u_x^2, or their Cauchy sums. It
    is work space: row 1 is overwritten with the weighted sum and row 2
    with its scaled term. Rows 0 and 1 are transformed by one stacked rfft
    into `out`, a complex (2, N/2+1) array. The result, the first
    grid.band_size entries of the unnormalised rfft of -F, is written into
    `band` when given and returned: only the dealiased band of each product
    spectrum is used, so the irfft of -band to N points zero-pads it back to
    the samples of F.
    """
    m = grid.band_size
    square, dsquare = products[1], products[2]
    np.multiply(square, 0.5 * b, out=square)
    np.multiply(dsquare, 0.5 * (3.0 - b), out=dsquare)
    np.add(square, dsquare, out=square)
    spectra = _rfft(products[:2], out)
    band = np.multiply(grid.band_nonlocal_multiplier, spectra[1, :m], out=band)
    return np.add(spectra[0, :m], band, out=band)


def rhs_F(u: RealField, b: float) -> RealField:
    """Evaluate F(u) pseudo-spectrally with dealiased quadratic products."""
    require_finite("b", b)
    grid = u.grid
    n, u = grid.n_points, u.samples
    spectra = np.empty((2, n // 2 + 1), dtype=complex)
    ux = _irfft(grid.half_deriv_multiplier * _rfft(u, spectra[0]), np.empty(n))
    band = _rhs_from_products(grid, b, np.array([u * ux, u * u, ux * ux]), out=spectra)
    return RealField(grid, _irfft(-band, np.empty(n)))


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
