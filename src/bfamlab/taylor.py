"""Local-in-time power-series solution u(t, x) = sum_k c_k(x) t^k.

Substituting the series into the evolution law, in conservative form, and
matching powers of t turns the quadratic right-hand side into a
Cauchy-product recursion,

    c_{k+1} = -1/(k+1) d_x [ (1/2) sum_{i+j=k} c_i c_j
              + Helmholtz^{-1}( (b/2) sum_{i+j=k} c_i c_j
                                + ((3-b)/2) sum_{i+j=k} d_x c_i d_x c_j ) ],

with c_0 the initial datum, so c_1 equals the direct right-hand side
evaluation exactly (shared code path).

Row k of one preallocated store holds c_k and d_x c_k side by side, so an
order's two Cauchy sums, of c_i c_j and of d_x c_i d_x c_j, are a single
contraction over the store's 2N-wide rows, written into the squares of one
`dynamics._Operator` (the stage layout is described there); the
conservative form needs no sum of c_i d_x c_j. Both sums are symmetric:
the contraction adds the pairs i < j once, and for even k one half of the
middle term i = j is added, which leaves half of each sum. The combine is
linear, so it gives half the band of -F, and dividing that band by
-(k+1)/2 gives c_{k+1}'s band; scaling by a power of two is exact, so this
is the band the doubled sums would give, bit for bit. The operator then
loads c_{k+1} and d_x c_{k+1} straight into row k + 1 of the store: an
order costs four real FFTs in two stacked kernel calls, with d_x c_{k+1}
never round-tripping through the samples. The series gets c_1 .. c_K as
rows of their own block, allocated before the store and filled with one
copy, so it keeps none of the derivative rows alive.

The temporal radius of convergence is estimated by a root test on the
coefficient norms of the tail half, once per series. Every coefficient norm
of this module and of `bfamlab taylor`, the radius's, the report's
|c_k|_L2 lines and its stepper check, is `_l2_norm`: sqrt(dx sum_x f(x)^2)
from the samples, by discrete Parseval, with no FFT.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import _Operator, _rhs_from_products
from .errors import ConfigurationError, NumericalError, require_finite, require_integer
from .grid import RealField, _finite_field

COEFF_SUP_CAP = 1e12
MIN_ORDER_FOR_RADIUS = 6


@dataclass(frozen=True)
class TaylorSeries:
    """Coefficient fields c_0 ... c_K; c_k has units of u per time^k.

    A series is immutable: its root-test radius is computed on first use
    and kept for the life of the series. Every coefficient lies on c_0's
    grid and b is finite, or ConfigurationError is raised.
    """

    b: float
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ConfigurationError("a Taylor series needs at least c_0 and c_1")
        require_finite("b", self.b)
        grid = self.coeffs[0].grid
        for k, c in enumerate(self.coeffs):
            if c.grid is not grid and c.grid != grid:
                raise ConfigurationError(
                    f"coefficient c_{k} lies on {c.grid}, c_0 on {grid}"
                )

    @property
    def grid(self):
        return self.coeffs[0].grid

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def _radius(self) -> float:
        start = (self.order + 1) // 2
        dx = self.grid.dx
        l2 = np.array([_l2_norm(c.samples, dx) for c in self.coeffs[start:]])
        best = float(np.max(l2 ** (1.0 / np.arange(start, self.order + 1))))
        return math.inf if best == 0.0 else 1.0 / best


def _l2_norm(samples: np.ndarray, dx: float) -> float:
    """|f|_{L^2} = sqrt(dx sum_x f(x)^2) from the samples of f, by discrete
    Parseval L sum_k p_k |f_hat_k|^2 = dx sum_x f(x)^2: sobolev_norm(f, 0)
    without its rfft and round-off floor."""
    return math.sqrt(dx * np.dot(samples, samples))


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
    # c_{k+1} has no modes above the band
    op.spectra[:, m:] = 0.0
    stage, sums = op.stage, op.squares.reshape(2 * n)
    # orders load into the store, so the fields are free work space
    work = op.fields.reshape(2 * n)
    # c_1 .. c_K for the series, allocated first so that the store above it
    # is released whole on return
    coeffs = np.empty((order, n))
    store = np.empty((order + 1, 2, n))  # d_x c_order comes with c_order, unused
    store[0] = op.fields
    rows = store.reshape(order + 1, 2 * n)
    kept = order
    for k in range(order):
        pairs = (k + 1) // 2  # index pairs i < k - i
        np.einsum("ij,ij->j", rows[:pairs], rows[k : k - pairs : -1], out=sums)
        if k % 2 == 0:
            middle = rows[k // 2]
            np.multiply(middle, middle, out=work)
            np.multiply(work, 0.5, out=work)
            np.add(sums, work, out=sums)
        # the combine gives the band of -F of half the sums: dividing by
        # -(k + 1)/2 gives c_{k+1}'s
        _rhs_from_products(op, op.squares, stage)
        np.divide(stage, -(k + 1) / 2, out=stage)
        loaded = op.load(store[k + 1])
        sup = float(np.maximum.reduce(np.abs(loaded[0], out=work[:n])))
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
            kept = k
            break
    if kept < 1:
        raise NumericalError("no usable Taylor coefficients beyond the datum")
    coeffs = coeffs[:kept]
    coeffs[:] = store[1 : kept + 1, 0]
    # the sup check above showed every kept row finite
    return TaylorSeries(b=b, coeffs=(u0,) + tuple(_finite_field(grid, c) for c in coeffs))


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
    for c in series.coeffs[-2::-1]:
        np.multiply(t, acc, out=acc)
        np.add(c.samples, acc, out=acc)
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
