"""Right-hand side of the b-family evolution law and its monitored functionals.

The evolution law, in conservative form, is

    u_t = F(u) = -d/dx [ u^2/2 + (1 - d^2/dx^2)^{-1} ( (b/2) u^2 + ((3-b)/2) u_x^2 ) ],

a one-parameter family containing Camassa-Holm (b = 2) and
Degasperis-Procesi (b = 3). The squares u^2 and u_x^2 are formed in
physical space and their spectra dealiased before any further multiplier
is applied. On the band, the first m = grid.band_size modes of the half
spectrum, -F is then A rfft(u^2) + B rfft(u_x^2) with

    A = i xi (1/2 + (b/2) / (1 + xi^2)),    B = i xi ((3-b)/2) / (1 + xi^2);

both vanish at xi = 0, so the mean of u never moves.

Every evaluation of F, in `rhs_F`, each RK4 stage of `evolve` and each
order of the `taylor` recursion, goes through one layout, an `_Operator`
built once per call, march or series from a datum u at b. It holds the band
multipliers `A` and `B` (b enters nowhere else); the half spectra
`spectra` = [f_hat, i xi f_hat] of a stage f, whose band `stage` the caller
writes and whose modes above the band keep u's unless the caller zeroes
them; the samples `fields` = [f, f_x], which `load()` refreshes from
`stage` with one multiply and one stacked irfft (`load(out)` writes them
into another (2, N) array instead); and the combine's work
arrays `squares` and `product_spectra`. It starts loaded with u.

The combine, `_rhs_from_products(op, squares, band)`, takes one stacked
rfft of `squares` ([f^2, f_x^2] or their Cauchy sums) and writes the band
of -F into `band`: 4 numpy calls, one of them the grid's rfft kernel, with
no allocation and no view made. It returns -F, so it ends on an add:
callers subtract it, or divide it by a negative number, where they would
have added F.

The monitored functionals here are the ones the state's samples or its
momentum give: the mean, |m|_L1 and min m. The H^1 norm is
`norms.sobolev_norm(u, 1.0)`, the `h1` column of a run's diagnostics; its
square, the integral of u^2 + u_x^2, is conserved only at b = 2. This module
imports only `grid` and `errors`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import require_finite
from .grid import RealField, _irfft, _rfft


class _Operator:
    """The layout of right-hand-side evaluations of the b-family at b,
    loaded with the datum u (module docstring)."""

    def __init__(self, u: RealField, b: float):
        require_finite("b", b)
        grid = u.grid
        n, m = grid.n_points, grid.band_size
        deriv = grid.half_deriv_multiplier
        band_deriv = self._band_deriv = deriv[:m]
        nonlocal_ = band_deriv * grid.helmholtz_inv_multiplier[:m]
        self.A, self.B = 0.5 * (band_deriv + b * nonlocal_), (0.5 * (3.0 - b)) * nonlocal_
        spectra = self.spectra = np.empty((2, n // 2 + 1), dtype=complex)
        fields = self.fields = np.empty((2, n))
        self.squares = np.empty((2, n))
        products = self.product_spectra = np.empty_like(spectra)
        self.stage, self._stage_deriv = spectra[0, :m], spectra[1, :m]
        self._square_band, self._dsquare_band = products[0, :m], products[1, :m]
        _rfft(u.samples, spectra[0])
        np.multiply(deriv, spectra[0], out=spectra[1])
        fields[0] = u.samples
        _irfft(spectra[1], fields[1])

    def load(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The samples [f, f_x] of a new `stage`, from `spectra`, written into
        `out`, a (2, N) array that defaults to `fields`; returns `out`.

        A caller that keeps every loaded stage, as the Taylor recursion keeps
        each c_k and d_x c_k, passes the row it keeps them in."""
        np.multiply(self._band_deriv, self.stage, out=self._stage_deriv)
        return _irfft(self.spectra, self.fields if out is None else out)


def _rhs_from_products(op: _Operator, squares: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Write the band of -F, A rfft(squares[0]) + B rfft(squares[1]), into
    `band` and return it; row 1 of `op.product_spectra` serves as work space.
    The irfft of -band to N points zero-pads it back to the samples of F."""
    _rfft(squares, op.product_spectra)
    np.multiply(op.A, op._square_band, out=band)
    dsquare = np.multiply(op.B, op._dsquare_band, out=op._dsquare_band)
    return np.add(band, dsquare, out=band)


def rhs_F(u: RealField, b: float) -> RealField:
    """Evaluate F(u) pseudo-spectrally with dealiased quadratic products."""
    op = _Operator(u, b)
    band = _rhs_from_products(op, np.multiply(op.fields, op.fields, out=op.squares), op.stage)
    return RealField(u.grid, _irfft(np.negative(band, out=band), np.empty(u.grid.n_points)))


def _helmholtz_half(u: RealField, apply) -> RealField:
    """u with its half spectrum divided (np.divide) or multiplied (np.multiply) by 1/(1 + xi^2)."""
    n = u.grid.n_points
    spectrum = _rfft(u.samples, np.empty(n // 2 + 1, dtype=complex))
    apply(spectrum, u.grid.helmholtz_inv_multiplier, out=spectrum)
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

