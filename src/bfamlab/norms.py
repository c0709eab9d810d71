"""Discrete Sobolev, Gevrey, Himonas-Misiolek, and Kato-Masuda functionals.

All norms discretize frequency integrals as L-weighted sums over grid modes,
consistent with the series-coefficient transform convention:

    sobolev_norm(u, s)        = ( L sum_k (1+xi^2)^s |u_hat|^2 )^{1/2}
    gevrey_norm(u, sigma, s)  = ( L sum_k e^{2 sigma |xi|} (1+xi^2)^s |u_hat|^2 )^{1/2}
    hm_norm(u, sigma, m)      = sup_j sigma^j (j+1)^2 / j! * |d^j u|_{H^{2m}}
    km_phi(u, sigma, m)       = 1/2 sum_{j=0}^m e^{2 sigma j} / (j!)^2 * |d^j u|^2_{H^2}

The fields are real, so every sum runs over the half spectrum k = 0 .. N/2
of one rfft, with pair weight p_k = 2 for the conjugate modes +-k and
p_k = 1 for k = 0 and the Nyquist mode k = N/2.

All five norms read a state one way, `_spectrum(u)`: one rfft, the modes
above the round-off floor |u_hat| > 1e-13 max|u_hat| (below it the weights
(1+xi^2)^s, e^{2 sigma |xi|} and |xi|^{2j} turn round-off into norm growth),
and the logs of L p |u_hat|^2 and 1 + xi^2 over those modes. The Sobolev and
Gevrey sums, and km_phi's sum over j, are each one log-sum-exp of log terms,
as (1+xi^2)^s and j! overflow doubles, and a norm past the double range is
inf. The derivative norms |d^j u|_{H^s} behind the factorial norms are a
scaled power sum instead: every term is divided by the largest Sobolev term
and by max|xi|^{2j}, so each lies in (0, 1] and the top mode's stays above
e^{-61}; a block of up to 32 orders is then one row of exponentials over
the modes and one matrix-vector product with a 32-row table of
(|xi| / max|xi|)^{2i} built once per reading. Up to 256 orders (8 blocks)
are one pass: one exp over a (block, mode) array and one stacked matmul
over the whole blocks. The open-ended sums (hm_norm, km_radius_norm) ask
for 256 orders at a time, so memory stays bounded at any j_max, and stop
at the first run of three consecutive terms below 1e-16 of the running
value. The log-sum-exp and log j! are this module's own numpy code. Every
norm also accepts a reading `_spectrum(u)` in place of u.

`bfamlab norms` reads a state once and takes l2, the H^s norm and the Gevrey
norm, with its divergence flag, from one log-sum-exp over one (3, mode)
array (`_gevrey` with orders); its factorial norms are the public functions
on that reading.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, TruncationError, require_finite, require_integer
from .grid import RealField, _rfft

ROUNDOFF_FLOOR = 1e-13
TAIL_RTOL = 1e-16
_LOG_TAIL = math.log(TAIL_RTOL)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)  # math.exp of it is finite, of the next double not
DEFAULT_J_MAX = 200
_LOG_TERM_FLOOR = -300.0  # exponent floor of the derivative-norm power sums
_ORDER_BLOCK = 32  # rows of a reading's order_powers table: the orders one product covers
_ORDER_CHUNK = 8 * _ORDER_BLOCK  # orders per pass: bounds the (block, mode) array at any j_max
_log_factorials = np.array([math.lgamma(j + 1.0) for j in range(DEFAULT_J_MAX + 1)])


class GevreyNorm(NamedTuple):
    """Truncated Gevrey norm plus a structural divergence verdict."""

    value: float
    diverged: bool


@dataclass(frozen=True)
class _Spectrum:
    """`kept` marks the modes k = 0 .. N/2 above the round-off floor; the other fields
    run over them: |xi|, |u_hat|, log L p |u_hat|^2 and log(1 + xi^2). The derivative
    norms' log ratios and power table are built on first use."""

    kept: np.ndarray
    abs_xi: np.ndarray
    amp: np.ndarray
    log_weight: np.ndarray
    log1p_xi2: np.ndarray

    @cached_property
    def log_xi_ratio(self) -> np.ndarray:
        """log(|xi| / max|xi|) when a mode with xi > 0 is kept, and _LOG_TERM_FLOOR / 2
        at xi = 0, so that 2 i times it is at the floor for every i >= 1."""
        ratio = self.abs_xi / self.abs_xi[-1]
        return np.log(ratio, out=np.full_like(ratio, 0.5 * _LOG_TERM_FLOOR), where=ratio > 0)

    @cached_property
    def order_powers(self) -> np.ndarray:
        """(|xi| / max|xi|)^{2i} for i = 0 .. _ORDER_BLOCK - 1, a row per i, with the
        exponent raised to _LOG_TERM_FLOOR where it is below."""
        power = np.multiply.outer(2.0 * np.arange(_ORDER_BLOCK), self.log_xi_ratio)
        return np.exp(np.maximum(power, _LOG_TERM_FLOOR, out=power), out=power)


def _spectrum(u) -> _Spectrum:
    """The reading of a RealField, from one rfft; a _Spectrum passes through as it is."""
    if isinstance(u, _Spectrum):
        return u
    grid = u.grid
    size = grid.n_points // 2 + 1
    amp = np.abs(_rfft(u.samples, np.empty(size, dtype=complex))) / grid.n_points
    kept = amp > ROUNDOFF_FLOOR * np.maximum.reduce(amp)
    pair = np.full(size, 2.0)
    pair[[0, -1]] = 1.0
    amp, abs_xi = amp[kept], grid.xi[kept]
    weight = grid.box_length * pair[kept] * amp**2
    return _Spectrum(kept, abs_xi, amp, np.log(weight), np.log1p(abs_xi**2))


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp(a) along axis; -inf where every term is -inf.

    The largest term (with its ties) is taken out of the sum and the rest
    enters through log1p (Blanchard, Higham and Higham, IMA J. Numer. Anal.
    41, 2021), which keeps the result within an ulp or so of the exact value.
    """
    peak = np.maximum.reduce(a, axis=axis, keepdims=True)
    top = a == peak
    ties = np.add.reduce(top, axis=axis, keepdims=True, dtype=np.intp)
    # skipping the shift where a == peak keeps -inf - -inf (NaN) out of an all -inf row
    shifted = np.subtract(a, peak, out=np.full_like(a, -np.inf), where=~top)
    rest = np.add.reduce(np.exp(shifted), axis=axis, keepdims=True)
    return (np.log1p(rest / ties) + np.log(ties) + peak).squeeze(axis)


# the name bench/tracing.py wraps to count log-sum-exp calls per norm
logsumexp = _logsumexp


def _log_factorial(j: np.ndarray) -> np.ndarray:
    """log j! for a non-negative integer array j, from a table grown on demand:
    a growth computes only the new entries and appends them."""
    global _log_factorials
    if j.max() >= _log_factorials.size:
        old = _log_factorials.size
        size = max(int(j.max()) + 1, 2 * old)
        new = np.fromiter((math.lgamma(k + 1.0) for k in range(old, size)), float, size - old)
        _log_factorials = np.concatenate((_log_factorials, new))
    return _log_factorials[j]


def _exp(log_value: float) -> float:
    """e^log_value; inf past the double range."""
    return math.inf if log_value > _LOG_DOUBLE_MAX else math.exp(log_value)


def _log_sobolev_terms(spectrum: _Spectrum, s) -> np.ndarray:
    """log L p (1+xi^2)^s |u_hat|^2 over the kept modes, a row per s of an (n, 1) s."""
    return spectrum.log_weight + s * spectrum.log1p_xi2


def _root_sums(log_terms: np.ndarray) -> list:
    """( sum exp(row) )^{1/2} for each row of a 2-D array; 0 for empty rows."""
    if log_terms.shape[1] == 0:
        return [0.0] * log_terms.shape[0]
    return [_exp(0.5 * v) for v in logsumexp(log_terms, axis=1).tolist()]


def _sobolev_norms(u, orders) -> list:
    """sobolev_norm(u, s) for each s in orders, from one log-sum-exp."""
    return _root_sums(_log_sobolev_terms(_spectrum(u), np.reshape(orders, (-1, 1))))


def _log_derivative_norms(spectrum: _Spectrum, s: float, j: np.ndarray) -> np.ndarray:
    """log |d^j u|_{H^s} for the consecutive orders j = j_0, j_0 + 1, ...; needs s >= 0.

    A scaled power sum: with c_k the log Sobolev terms, c* their max and
    l* = log max|xi| over the kept modes, r_k = |xi_k| / max|xi| and i = j - j_0,

        log |d^j u|^2_{H^s} = c* + 2 j l* + log sum_k r_k^{2i} e^{c_k - c* + 2 j_0 log r_k},

    so each block of up to 32 orders is one row of exponentials over the
    modes and one matrix-vector product with the reading's table of r^{2i}.
    Up to 8 blocks (256 orders) are one pass: one exp over a (block, mode)
    array and one stacked matmul over the whole blocks. Every exponent
    is <= 0, so nothing overflows, and the sum cannot reach 0: the top mode
    has r = 1 and e^{c - c*} >= e^{-61}, as every kept |u_hat| exceeds
    1e-13 max|u_hat|, p falls at most from 2 to 1 and, for s >= 0,
    (1+xi^2)^s grows with |xi|. Exponents below _LOG_TERM_FLOOR are raised to
    it, as np.exp is slow where its result is subnormal. That adds at most
    e^{-239} of the sum per mode, and keeps every product of the two factors
    above e^{-600}, out of the subnormal range. The xi = 0 mode's log r is
    half the floor: it counts in full for j = 0 and at the floor for j >= 1.
    With no xi > 0 mode kept, the j >= 1 orders are -inf.
    """
    log_terms = _log_sobolev_terms(spectrum, s)
    if spectrum.abs_xi[-1] == 0:
        return np.where(j == 0, 0.5 * log_terms[0], -np.inf)
    peak = np.maximum.reduce(log_terms)
    shifted = log_terms - peak
    sums = np.empty(j.size)
    for start in range(0, j.size, _ORDER_CHUNK):
        chunk = sums[start:start + _ORDER_CHUNK]
        # log e^{c_k - c*} r_k^{2 j_0} at each block's first order j_0, a row per block
        first = 2.0 * (j[0] + np.arange(start, start + chunk.size, _ORDER_BLOCK))
        lead = np.multiply.outer(first, spectrum.log_xi_ratio)
        np.add(lead, shifted, out=lead)
        np.maximum(lead, _LOG_TERM_FLOOR, out=lead)
        np.exp(lead, out=lead)
        # one matrix-vector product per block, the whole blocks stacked into one
        # call; a part block takes only its rows of the table. BLAS sums a short
        # table, or a matrix product, in another order, so this keeps the bits of
        # a block-by-block evaluation, which repeat on every call with one BLAS thread
        whole, part = divmod(chunk.size, _ORDER_BLOCK)
        np.matmul(spectrum.order_powers, lead[:whole, :, None],
                  out=chunk[:whole * _ORDER_BLOCK].reshape(whole, _ORDER_BLOCK, 1))
        if part:
            np.matmul(spectrum.order_powers[:part], lead[whole], out=chunk[-part:])
    # c* + 2 j l* in numpy's extended precision, where the platform has one: the rounding
    # of l*, times 2 j, would otherwise enter every term of order j
    offset = np.longdouble(peak) + j * (2 * np.log(np.longdouble(spectrum.abs_xi[-1])))
    return 0.5 * (np.log(sums) + offset).astype(float)


def _truncated_sum(log_terms_of, j_max: int, accumulate):
    """Running value of the log terms j = 0, 1, ..., j_max under `accumulate`.

    `accumulate` is np.maximum.accumulate (a sup) or np.logaddexp.accumulate
    (a sum). Terms are evaluated 256 orders at a time, one pass each; the
    value is returned at the first run of three consecutive terms below
    TAIL_RTOL of the running value, and None if no such run occurs by
    j = j_max. The running value and the last two orders' small-term flags
    carry across chunks, and the running value enters each accumulate first,
    so the terms are accumulated left to right as in one pass over all orders.
    """
    running = -math.inf
    carry = np.zeros(0, dtype=bool)  # small-term flags of the last two orders so far
    for start in range(0, j_max + 1, _ORDER_CHUNK):
        terms = log_terms_of(np.arange(start, min(start + _ORDER_CHUNK, j_max + 1)))
        values = accumulate(np.concatenate(([running], terms)))[1:]
        small = np.concatenate((carry, terms < values + _LOG_TAIL))
        three = small[:-2] & small[1:-1] & small[2:]
        if three.any():
            return float(values[np.argmax(three) + 2 - carry.size])
        running, carry = values[-1], small[-2:]
    return None


def _require_sigma_below_inf(sigma: float) -> None:
    """Admit every real sigma and -inf; NaN and +inf raise ConfigurationError."""
    if not sigma < math.inf:
        raise ConfigurationError(f"sigma must be real or -inf, got {sigma}")


def sobolev_norm(u: RealField, s: float) -> float:
    """H^s norm, ( L sum_k (1+xi^2)^s |u_hat|^2 )^{1/2}."""
    require_finite("s", s)
    return _sobolev_norms(u, (s,))[0]


def _gevrey(u, sigma: float, s: float, orders=()) -> tuple:
    """(gevrey_norm(u, sigma, s), [sobolev_norm(u, r) for r in orders]), the
    arguments checked as gevrey_norm checks them. The Gevrey row of log terms
    and a row per order are one log-sum-exp; the Gevrey row's terms also give
    the divergence flag."""
    require_finite("sigma", sigma)
    require_finite("s", s)
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    spectrum = _spectrum(u)
    # at sigma = 0 the terms, and so the value, are sobolev_norm's bit for bit
    log_terms = _log_sobolev_terms(spectrum, s) + 2.0 * sigma * spectrum.abs_xi
    rows = log_terms[None]
    if orders:
        rows = np.vstack((rows, _log_sobolev_terms(spectrum, np.reshape(orders, (-1, 1)))))
    value, *values = _root_sums(rows)
    return GevreyNorm(value, _tail_growing(spectrum.abs_xi, log_terms)), values


def gevrey_norm(u: RealField, sigma: float, s: float) -> GevreyNorm:
    """Gevrey norm with weight e^{2 sigma |xi|}; sigma = 0 recovers sobolev_norm.

    A truncated mode sum is always finite, so divergence (sigma beyond the
    field's resolvable decay rate) is inferred structurally: the flag is set
    when the weighted per-|k| terms grow over the last quarter of the kept modes.
    """
    return _gevrey(u, sigma, s)[0]


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """(slope, intercept) of the least-squares line through the points (x, y),
    in centred closed form: no Vandermonde matrix and no lstsq call."""
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float(np.dot(dx, y - y_mean) / np.dot(dx, dx))
    return slope, float(y_mean) - slope * float(x_mean)


def _tail_growing(abs_xi: np.ndarray, log_terms: np.ndarray) -> bool:
    """Least-squares slope of log term vs |xi| over the last quarter of the
    resolved k > 0 is positive. Half-spectrum modes are the distinct |xi|
    values, their terms already carrying both of +-k."""
    positive = abs_xi > 0
    n = int(np.count_nonzero(positive))
    start = (3 * n) // 4
    if n < 8 or n - start < 4:
        return False
    return _line_fit(abs_xi[positive][start:], log_terms[positive][start:])[0] > 0


def hm_norm(u: RealField, sigma: float, m: int, j_max: int = DEFAULT_J_MAX) -> float:
    """sup over j of sigma^j (j+1)^2 / j! * |d^j u|_{H^{2m}}, in log space.

    The sup is truncated once three consecutive terms fall below 1e-16 of
    the running sup; if that never happens within j_max terms the norm is
    not resolvable at this resolution and a TruncationError is raised.
    """
    require_finite("sigma", sigma)
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    require_integer("m", m, 2)
    require_integer("j_max", j_max, 1)
    spectrum = _spectrum(u)
    if spectrum.amp.size == 0:
        return 0.0
    log_sigma = math.log(sigma)

    def log_terms_of(j):
        return (j * log_sigma + 2.0 * np.log(j + 1.0) - _log_factorial(j)
                + _log_derivative_norms(spectrum, 2.0 * m, j))

    log_sup = _truncated_sum(log_terms_of, j_max, np.maximum.accumulate)
    if log_sup is None:
        raise TruncationError(
            f"hm_norm terms have not decayed below {TAIL_RTOL:g} of the sup by j = {j_max}; "
            "sigma exceeds the decay rate resolvable on this grid"
        )
    return _exp(log_sup)


def _log_km_terms(spectrum, sigma: float, j: np.ndarray) -> np.ndarray:
    """log of e^{2 sigma j} / (j!)^2 |d^j u|^2_{H^2} for each order in j."""
    # sigma j is 0 at j = 0 for every sigma: -inf * 0 would be NaN
    weight = np.where(j > 0, sigma, 0.0) * j
    return 2.0 * (weight - _log_factorial(j) + _log_derivative_norms(spectrum, 2.0, j))


def km_phi(u: RealField, sigma: float, m: int) -> float:
    """Kato-Masuda functional, 1/2 sum_{j<=m} e^{2 sigma j}/(j!)^2 |d^j u|^2_{H^2}.

    Any real sigma is admitted, and sigma = -inf gives the limit, half the
    squared H^2 norm; NaN and +inf raise ConfigurationError. m = 0 reduces
    to half the squared H^2 norm as well.
    """
    _require_sigma_below_inf(sigma)
    require_integer("m", m, 0)
    spectrum = _spectrum(u)
    if spectrum.amp.size == 0:
        return 0.0
    return 0.5 * _exp(float(logsumexp(_log_km_terms(spectrum, sigma, np.arange(m + 1)))))


def km_radius_norm(u: RealField, sigma: float, j_max: int = DEFAULT_J_MAX) -> float:
    """The m -> infinity limit norm ( 2 * km_phi )^{1/2}.

    The factorial weights guarantee eventual convergence; the sum stops when
    three consecutive terms fall below 1e-16 of the running total, and raises
    TruncationError if that does not happen within j_max terms (the field is
    not in the strip class at this sigma and resolution). sigma is admitted
    as in km_phi.
    """
    _require_sigma_below_inf(sigma)
    require_integer("j_max", j_max, 1)
    spectrum = _spectrum(u)
    if spectrum.amp.size == 0:
        return 0.0
    total = _truncated_sum(
        lambda j: _log_km_terms(spectrum, sigma, j), j_max, np.logaddexp.accumulate
    )
    if total is None:
        raise TruncationError(
            f"km_radius_norm tail has not fallen below {TAIL_RTOL:g} by j = {j_max}"
        )
    return _exp(0.5 * total)
