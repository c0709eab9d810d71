"""Local-in-time power-series solution u(t, x) = sum_k c_k(x) t^k.

Substituting the series into the evolution law, in conservative form, and
matching powers of t turns the quadratic right-hand side into a
Cauchy-product recursion,

    c_{k+1} = -1/(k+1) d_x [ (1/2) sum_{i+j=k} c_i c_j
              + Helmholtz^{-1}( (b/2) sum_{i+j=k} c_i c_j
                                + ((3-b)/2) sum_{i+j=k} d_x c_i d_x c_j ) ],

with c_0 the initial datum, so c_1 equals the direct right-hand side
evaluation exactly (shared code path).

The coefficients c_k and derivatives d_x c_k are rows of two preallocated
arrays, so each of the two Cauchy sums of an order is one contraction over
the rows. Both sums are symmetric: they add the pairs i < j once, doubled,
plus the middle term i = j when k is even; the conservative form needs no
sum of c_i d_x c_j. An order writes the two sums into the squares of one
`dynamics._Operator` (the stage layout is described there), combines them
into the operator's stage band and loads c_{k+1} and d_x c_{k+1} from it:
four real FFTs in two stacked kernel calls, with d_x c_{k+1} never
round-tripping through the samples.

The temporal radius of convergence is estimated by a root test on the
coefficient norms, once per series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import _Operator, _rhs_from_products
from .errors import ConfigurationError, NumericalError, require_finite, require_integer
from .grid import RealField

COEFF_SUP_CAP = 1e12
MIN_ORDER_FOR_RADIUS = 6


@dataclass(frozen=True)
class TaylorSeries:
    """Coefficient fields c_0 ... c_K; c_k has units of u per time^k.

    A series is immutable: its root-test radius is computed on first use
    and kept for the life of the series.
    """

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

    @cached_property
    def _radius(self) -> float:
        start = (self.order + 1) // 2
        # |c_k|_{L^2} by discrete Parseval, L sum_k p_k |c_hat_k|^2 = dx sum_x c_k(x)^2,
        # which is sobolev_norm(c_k, 0) without its rfft and round-off floor
        squares = [np.dot(c.samples, c.samples) for c in self.coeffs[start:]]
        l2 = np.sqrt(self.grid.dx * np.array(squares))
        best = float(np.max(l2 ** (1.0 / np.arange(start, self.order + 1))))
        return math.inf if best == 0.0 else 1.0 / best


def taylor_coeffs(u0: RealField, b: float, order: int) -> TaylorSeries:
    """Build the series coefficients up to the requested order.

    Coefficients whose sup norm exceeds 1e12 signal a vanishing temporal
    radius at this resolution; the series is truncated there with a warning
    rather than allowed to overflow.
    """
    require_integer("order", order, 1)
    grid = u0.grid
    n, m = grid.n_points, grid.band_size
    op = _Operator(u0, b)
    # c_{k+1} has no modes above the band; the fields are free work space
    # until an order loads them
    op.spectra[:, m:] = 0.0
    squares, stage, pair = op.squares, op.stage, op.fields
    cs = np.empty((order + 1, n))
    dcs = np.empty((order + 1, n))  # d_x c_order comes with c_order, unused
    cs[0], dcs[0] = op.fields
    kept = order + 1
    for k in range(order):
        pairs = (k + 1) // 2  # index pairs i < k - i
        np.einsum("ij,ij->j", cs[:pairs], cs[k : k - pairs : -1], out=squares[0])
        np.einsum("ij,ij->j", dcs[:pairs], dcs[k : k - pairs : -1], out=squares[1])
        np.multiply(2.0, squares, out=squares)
        if k % 2 == 0:
            np.multiply(cs[k // 2], cs[k // 2], out=pair[0])
            np.multiply(dcs[k // 2], dcs[k // 2], out=pair[1])
            np.add(squares, pair, out=squares)
        # the combine gives the band of -F: dividing by -(k + 1) gives c_{k+1}'s
        _rhs_from_products(op, squares, stage)
        np.divide(stage, -(k + 1), out=stage)
        cs[k + 1], dcs[k + 1] = op.load()
        sup = float(np.maximum.reduce(np.abs(pair[0], out=pair[1])))
        if not math.isfinite(sup):
            raise NumericalError(
                f"non-finite Taylor coefficient c_{k + 1}; the temporal radius "
                "is effectively zero at this resolution"
            )
        if sup > COEFF_SUP_CAP:
            warnings.warn(
                f"Taylor coefficient c_{k + 1} reached sup norm {sup:.3e}; "
                f"series truncated at order {k} to avoid overflow noise",
                stacklevel=2,
            )
            kept = k + 1
            break
    if kept < 2:
        raise NumericalError("no usable Taylor coefficients beyond the datum")
    return TaylorSeries(b=b, coeffs=(u0,) + tuple(RealField(grid, c) for c in cs[1:kept]))


def taylor_eval(series: TaylorSeries, t: float) -> RealField:
    """Horner evaluation of the series at time t.

    Warns (does not fail) when |t| exceeds the estimated temporal radius.
    """
    require_finite("t", t)
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
    Computed once per series.
    """
    K = series.order
    if K < MIN_ORDER_FOR_RADIUS:
        raise ConfigurationError(
            f"radius estimation needs at least {MIN_ORDER_FOR_RADIUS} coefficients, got {K}"
        )
    return series._radius
