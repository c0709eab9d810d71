"""Local-in-time power-series solution u(t, x) = sum_k c_k(x) t^k.

Substituting the series into the evolution law and matching powers of t
turns the quadratic right-hand side into a Cauchy-product recursion,

    c_{k+1} = -1/(k+1) [ sum_{i+j=k} c_i d_x c_j
              + d_x Helmholtz^{-1}( (b/2) sum_{i+j=k} c_i c_j
                                    + ((3-b)/2) sum_{i+j=k} d_x c_i d_x c_j ) ],

with c_0 the initial datum, so c_1 equals the direct right-hand side
evaluation exactly (shared code path). The temporal radius of convergence is
estimated by a root test on the coefficient norms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import _rhs_from_products
from .errors import ConfigurationError, NumericalError
from .grid import RealField
from .norms import sobolev_norm

COEFF_SUP_CAP = 1e12
MIN_ORDER_FOR_RADIUS = 6


@dataclass(frozen=True)
class TaylorSeries:
    """Coefficient fields c_0 ... c_K; c_k has units of u per time^k."""

    b: float
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ConfigurationError("a Taylor series needs at least c_0 and c_1")

    @property
    def grid(self):
        return self.coeffs[0].grid

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def taylor_coeffs(u0: RealField, b: float, order: int) -> TaylorSeries:
    """Build the series coefficients up to the requested order.

    Coefficients whose sup norm exceeds 1e12 signal a vanishing temporal
    radius at this resolution; the series is truncated there with a warning
    rather than allowed to overflow.
    """
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    grid = u0.grid
    n = grid.n_points
    cs = [u0.samples]
    dcs = []
    fields = [u0]
    for k in range(order):
        dcs.append(np.fft.irfft(grid.half_deriv_multiplier * np.fft.rfft(cs[k]), n))
        conv_advect = np.zeros(n)
        conv_square = np.zeros(n)
        conv_dsquare = np.zeros(n)
        for i in range(k + 1):
            conv_advect += cs[i] * dcs[k - i]
            conv_square += cs[i] * cs[k - i]
            conv_dsquare += dcs[i] * dcs[k - i]
        try:
            band = _rhs_from_products(grid, b, conv_advect, conv_square, conv_dsquare)
            c_next = RealField(grid, np.fft.irfft(band, n) / (k + 1))
        except NumericalError as err:
            raise NumericalError(
                f"non-finite Taylor coefficient c_{k + 1}; the temporal radius "
                "is effectively zero at this resolution"
            ) from err
        sup = float(np.max(np.abs(c_next.samples)))
        if sup > COEFF_SUP_CAP:
            warnings.warn(
                f"Taylor coefficient c_{k + 1} reached sup norm {sup:.3e}; "
                f"series truncated at order {k} to avoid overflow noise",
                stacklevel=2,
            )
            break
        fields.append(c_next)
        cs.append(c_next.samples)
    if len(fields) < 2:
        raise NumericalError("no usable Taylor coefficients beyond the datum")
    return TaylorSeries(b=b, coeffs=tuple(fields))


def taylor_eval(series: TaylorSeries, t: float) -> RealField:
    """Horner evaluation of the series at time t.

    Warns (does not fail) when |t| exceeds the estimated temporal radius.
    """
    if series.order >= MIN_ORDER_FOR_RADIUS:
        radius = time_radius_estimate(series)
        if math.isfinite(radius) and abs(t) > radius:
            warnings.warn(
                f"evaluating at t = {t:.4g} outside the estimated temporal "
                f"radius {radius:.4g}",
                stacklevel=2,
            )
    acc = series.coeffs[-1].samples.copy()
    for k in range(series.order - 1, -1, -1):
        acc = series.coeffs[k].samples + t * acc
    return RealField(series.grid, acc)


def time_radius_estimate(series: TaylorSeries) -> float:
    """Root-test radius 1 / max_k |c_k|_{L^2}^{1/k} over the tail half.

    Using only the last half of the computed coefficients makes the estimate
    robust to odd/even cancellation in parity-symmetric data. Returns inf
    when every tail coefficient vanishes (polynomial or steady case).
    """
    K = series.order
    if K < MIN_ORDER_FOR_RADIUS:
        raise ConfigurationError(
            f"radius estimation needs at least {MIN_ORDER_FOR_RADIUS} coefficients, got {K}"
        )
    tail_start = max(1, (K + 1) // 2)
    best = 0.0
    for k in range(tail_start, K + 1):
        norm = sobolev_norm(series.coeffs[k], 0.0)
        if norm > 0.0:
            best = max(best, norm ** (1.0 / k))
    if best == 0.0:
        return math.inf
    return 1.0 / best
