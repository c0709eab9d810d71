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

Every evaluation of F, in `rhs_F` and each order of the `taylor`
recursion, goes through one layout, an `_Operator` built from a datum u at
b once per series march and once per `rhs_F` or `taylor_coeffs` call. It
holds its `grid`, the band multipliers `A` and `B` (b enters nowhere
else); the half spectra `spectra` = [f_hat, i xi f_hat] of a stage f, whose
band `stage` the caller writes and whose modes above the band keep u's
unless the caller zeroes them; the samples `fields` = [f, f_x] of the
datum; and the combine's work arrays `squares` and `product_spectra`.
`load(out)` writes the samples [f, f_x] of a new `stage` into `out`, an
array shaped like `fields`, with one multiply and one stacked irfft. It
starts loaded with u, and `reset(samples)` loads another datum on its grid
into the same arrays: one rfft of the whole half spectrum, then the
samples, then, where f_x is held, one multiply and one irfft. The series
march's resolution guard (`evolve._check_resolved`) reads the band of that
rfft from `stage` before the recursion overwrites it, at b = 3 too, where
nothing else reads it.

At b = 3 (Degasperis-Procesi) B is exactly 0, and the operator decides
once, from b, to hold one row: `B` is None, `spectra` = [f_hat],
`fields` = [f] and `squares` = [f^2], so `load(out)` is one irfft with no
multiply and no f_x is ever formed. Callers read the row count from the
shapes of these arrays and nothing else. No value changes: at b = 3 the
B term only ever added +-0 to the band.

The combine, `_rhs_from_products(op, squares, band)`, takes one stacked
rfft of `squares` ([f^2, f_x^2] or their Cauchy sums) and writes the band
of -F into `band`: 4 numpy calls, one of them the grid's rfft kernel, with
no allocation and no view made; at b = 3 it is one rfft of [f^2] and one
multiply by A, 2 numpy calls. It returns -F, so callers subtract it, or
divide it by a negative number, where they would have added F.

The monitored functionals here are the ones the state's samples or its
momentum give: the mean, |m|_L1 and min m. The H^1 norm is
`norms.sobolev_norm(u, 1.0)`, the `h1` column of a run's diagnostics; its
square, the integral of u^2 + u_x^2, is conserved only at b = 2. This module
imports only `grid` and `errors`.
"""

from __future__ import annotations

import numpy as np

from .errors import require_finite
from .grid import RealField, _irfft, _rfft


class _Operator:
    """The layout of right-hand-side evaluations of the b-family at b,
    loaded with the datum u (module docstring)."""

    def __init__(self, u: RealField, b: float):
        require_finite("b", b)
        grid = self.grid = u.grid
        n, m = grid.n_points, grid.band_size
        # B = ((3 - b)/2) i xi/(1 + xi^2) vanishes at b = 3: no row for f_x
        rows = 1 if b == 3.0 else 2
        band_deriv = self._band_deriv = grid.half_deriv_multiplier[:m]
        nonlocal_ = band_deriv * grid.helmholtz_inv_multiplier[:m]
        self.A = 0.5 * (band_deriv + b * nonlocal_)
        self.B = None if rows == 1 else (0.5 * (3.0 - b)) * nonlocal_
        spectra = self.spectra = np.empty((rows, n // 2 + 1), dtype=complex)
        self.fields = np.empty((rows, n))
        self.squares = np.empty((rows, n))
        products = self.product_spectra = np.empty_like(spectra)
        self.stage, self._square_band = spectra[0, :m], products[0, :m]
        if rows == 2:
            self._stage_deriv, self._dsquare_band = spectra[1, :m], products[1, :m]
        self.reset(u.samples)

    def reset(self, samples: np.ndarray) -> None:
        """Load the datum with these samples into the arrays the operator
        holds: its whole half spectrum, not the band alone, and its fields."""
        _rfft(samples, self.spectra[0])
        self.fields[0] = samples
        if self.B is not None:
            np.multiply(self.grid.half_deriv_multiplier, self.spectra[0], out=self.spectra[1])
            _irfft(self.spectra[1], self.fields[1])

    def load(self, out: np.ndarray) -> np.ndarray:
        """The samples [f, f_x] ([f] at b = 3) of a new `stage`, from
        `spectra`, written into `out`, an array shaped like `fields`;
        returns `out`. The Taylor recursion passes the store row it keeps
        c_k and d_x c_k in."""
        if self.B is not None:
            np.multiply(self._band_deriv, self.stage, out=self._stage_deriv)
        return _irfft(self.spectra, out)


def _rhs_from_products(op: _Operator, squares: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Write the band of -F, A rfft(squares[0]) + B rfft(squares[1]), into
    `band` and return it; row 1 of `op.product_spectra` serves as work space.
    At b = 3 `squares` has one row and the band is A rfft(squares[0]).
    The irfft of -band to N points zero-pads it back to the samples of F."""
    _rfft(squares, op.product_spectra)
    np.multiply(op.A, op._square_band, out=band)
    if op.B is None:
        return band
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


def momentum_l1(u: RealField) -> float:
    """Periodic trapezoid quadrature of |m|, m = u - u_xx.

    Conserved by the flow whenever m never changes sign.
    """
    return u.grid.dx * float(np.sum(np.abs(momentum(u).samples)))


def momentum_min(u: RealField) -> float:
    """Grid minimum of the momentum density; sign certificate for m >= 0.

    Spectral data cannot certify pointwise sign between nodes; treat values
    above roughly -1e-10 * max|m| as non-negative.
    """
    return float(np.min(momentum(u).samples))

