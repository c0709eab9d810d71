"""Local-in-time power-series solution u(t, x) = sum_k c_k(x) t^k.

Substituting the series into the evolution law, in conservative form, and
matching powers of t turns the quadratic right-hand side into a
Cauchy-product recursion,

    c_{k+1} = -1/(k+1) d_x [ (1/2) sum_{i+j=k} c_i c_j
              + Helmholtz^{-1}( (b/2) sum_{i+j=k} c_i c_j
                                + ((3-b)/2) sum_{i+j=k} d_x c_i d_x c_j ) ],

with c_0 the initial datum, so c_1 equals the direct right-hand side
evaluation exactly (shared code path).

Row k of one store holds c_k and d_x c_k side by side, so an
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
never round-tripping through the samples. At b = 3 the operator holds one
row, so row k is c_k alone, N wide: an order is one Cauchy sum and two
real FFTs in two kernel calls. The store has one row more, the recursion's
work space, so the operator's fields keep c_0 and d_x c_0.

`_recursion(op, store)` is the order loop alone: the caller builds the
operator, loaded with c_0, and the store, and the recursion allocates no
array. `taylor_coeffs` builds both for one series and copies the kept
c_1 .. c_K out in one block, so the series keeps none of the derivative
rows alive; the block is allocated before the store, so that the freed
store leaves no hole in the heap below it, and a cut series shrinks it to
the kept rows. The Taylor march of `evolve` builds both once per march.

The recursion itself, `_recursion`, stops at the first coefficient that is
not finite or exceeds COEFF_SUP_CAP and neither warns nor raises:
`taylor_coeffs` warns or raises there, and the Taylor march of `evolve`,
which builds the series of every state, steps with the order it has.

The temporal radius of convergence is estimated by a root test on the
coefficient norms of the tail half, once per series. Every coefficient norm
of this module, of `bfamlab taylor` and of the Taylor march, the radius's,
the report's |c_k|_L2 lines and its defect check, and the march's step
rule, is `_l2_norm`: sqrt(dx sum_x f(x)^2) from the samples, by discrete
Parseval, with no FFT.
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
    op = _Operator(u0, b)
    # the series' rows, allocated before the store so that the store is
    # freed at the top of the heap and returned, not left as a hole below them
    block = np.empty((order, u0.grid.n_points))
    coeffs, sup = _recursion(op, np.empty((order + 2,) + op.fields.shape))
    kept = len(coeffs)
    if sup is not None:
        if not math.isfinite(sup):
            raise NumericalError(
                f"non-finite Taylor coefficient c_{kept + 1}; the temporal radius "
                "is effectively zero at this resolution"
            )
        warnings.warn(
            f"Taylor coefficient c_{kept + 1} reached sup norm {sup:.3e}; "
            f"series truncated at order {kept} to avoid overflow noise",
            stacklevel=2,
        )
    if kept < 1:
        raise NumericalError("no usable Taylor coefficients beyond the datum")
    # the kept rows in one block of their own, so the series keeps no
    # derivative row and no row past a cut alive; the recursion showed every
    # kept row finite
    block.resize(coeffs.shape, refcheck=False)
    block[...] = coeffs
    return TaylorSeries(b=b, coeffs=(u0,) + tuple(_finite_field(u0.grid, c) for c in block))


def _recursion(op: _Operator, store: np.ndarray) -> tuple:
    """The samples of c_1 .. c_kept of the datum `op` holds, as rows of
    `store`, and the sup norm of c_{kept + 1}, the first coefficient that is
    not finite or exceeds COEFF_SUP_CAP, where the recursion stops (None
    when kept == order). `store` has shape (order + 2,) + op.fields.shape:
    row k takes c_k and d_x c_k (c_k alone at b = 3), and the last row is
    work space, so `op.fields` keep the datum's. It warns and raises
    nothing: `taylor_coeffs` and the Taylor march of `evolve` each decide
    what a short series means."""
    order = len(store) - 2
    n, m = op.grid.n_points, op.grid.band_size
    # c_{k+1} has no modes above the band
    op.spectra[:, m:] = 0.0
    stage, sums = op.stage, op.squares.reshape(-1)
    store[0] = op.fields
    rows, work = store.reshape(order + 2, -1), store[-1].reshape(-1)
    kept, sup = order, None
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
        peak = float(np.maximum.reduce(np.abs(loaded[0], out=work[:n])))
        if not peak <= COEFF_SUP_CAP:
            kept, sup = k, peak
            break
    return store[1 : kept + 1, 0], sup


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
    return RealField(series.grid, _horner([c.samples for c in series.coeffs], t))


def _horner(rows, t: float) -> np.ndarray:
    """sum_k rows[k] t^k in Horner form, as a new array."""
    acc = rows[-1].copy()
    for c in rows[-2::-1]:
        np.multiply(t, acc, out=acc)
        np.add(c, acc, out=acc)
    return acc


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
            f"radius estimation needs order at least {MIN_ORDER_FOR_RADIUS}, got order {K}"
        )
    return series._radius
