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
and the logs of L p |u_hat|^2, 1 + xi^2 and |xi| over those modes. Each sum
is one log-sum-exp of log terms, as (1+xi^2)^s and j! overflow doubles, and
a norm past the double range is inf. One kernel gives log |d^j u|_{H^s} for
an array of orders j; the open-ended sums (hm_norm, km_radius_norm) take 32
orders per block and stop at the first run of three consecutive terms below
1e-16 of the running value. The log-sum-exp and log j! are this module's own
numpy code. Every norm also accepts a reading `_spectrum(u)` in place of u.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, TruncationError, require_finite
from .grid import RealField, SpectralField, _rfft

ROUNDOFF_FLOOR = 1e-13
TAIL_RTOL = 1e-16
_LOG_TAIL = math.log(TAIL_RTOL)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)  # math.exp of it is finite, of the next double not
DEFAULT_J_MAX = 200
_ORDER_BLOCK = 32  # orders per (order, mode) array: bounds its memory when j_max is large
_log_factorials = np.array([math.lgamma(j + 1.0) for j in range(DEFAULT_J_MAX + 1)])


class GevreyNorm(NamedTuple):
    """Truncated Gevrey norm plus a structural divergence verdict."""

    value: float
    diverged: bool


class _Spectrum(NamedTuple):
    """`kept` marks the modes k = 0 .. N/2 above the round-off floor; the other fields
    run over them: |xi|, |u_hat|, log L p |u_hat|^2, log(1 + xi^2), log|xi| (-inf at 0)."""

    kept: np.ndarray
    abs_xi: np.ndarray
    amp: np.ndarray
    log_weight: np.ndarray
    log1p_xi2: np.ndarray
    log_abs_xi: np.ndarray


def _spectrum(u) -> _Spectrum:
    """The reading of a RealField (one rfft) or of a SpectralField (its modes
    k = 0 .. N/2); a _Spectrum passes through as it is."""
    if isinstance(u, _Spectrum):
        return u
    grid = u.grid
    size = grid.n_points // 2 + 1
    if isinstance(u, SpectralField):
        amp = np.abs(u.coeffs[:size])
    else:
        amp = np.abs(_rfft(u.samples, np.empty(size, dtype=complex))) / grid.n_points
    kept = amp > ROUNDOFF_FLOOR * np.maximum.reduce(amp)
    pair = np.full(size, 2.0)
    pair[[0, -1]] = 1.0
    amp, abs_xi = amp[kept], np.abs(grid.xi[:size])[kept]
    weight = grid.box_length * pair[kept] * amp**2
    log_abs_xi = np.log(abs_xi, out=np.full_like(abs_xi, -np.inf), where=abs_xi > 0)
    return _Spectrum(kept, abs_xi, amp, np.log(weight), np.log1p(abs_xi**2), log_abs_xi)


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
    """log j! for a non-negative integer array j, from a table grown on demand."""
    global _log_factorials
    if j.max() >= _log_factorials.size:
        size = max(int(j.max()) + 1, 2 * _log_factorials.size)
        _log_factorials = np.array([math.lgamma(k + 1.0) for k in range(size)])
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
    """log |d^j u|_{H^s} for each order in the integer array j.

    One log-sum-exp over the (order, mode) array of log L p (1+xi^2)^s
    |xi|^{2j} |u_hat|^2; the xi = 0 mode counts for j = 0 only.
    """
    # 2 j log|xi|, left 0 in the j = 0 row, where 0 * log 0 would be NaN
    power = np.multiply(2.0 * j[:, None], spectrum.log_abs_xi, where=j[:, None] > 0,
                        out=np.zeros((j.size, spectrum.abs_xi.size)))
    return 0.5 * logsumexp(_log_sobolev_terms(spectrum, s) + power, axis=1)


def _truncated_sum(log_terms_of, j_max: int, accumulate):
    """Running value of the log terms j = 0, 1, ..., j_max under `accumulate`.

    `accumulate` is np.maximum.accumulate (a sup) or np.logaddexp.accumulate
    (a sum). Terms are evaluated 32 orders at a time; the value is returned
    at the first run of three consecutive terms below TAIL_RTOL of the
    running value, and None if no such run occurs by j = j_max.
    """
    running = -math.inf
    carry = np.zeros(0, dtype=bool)  # small-term flags of the last two orders so far
    for start in range(0, j_max + 1, _ORDER_BLOCK):
        terms = log_terms_of(np.arange(start, min(start + _ORDER_BLOCK, j_max + 1)))
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


def gevrey_norm(u: RealField, sigma: float, s: float) -> GevreyNorm:
    """Gevrey norm with weight e^{2 sigma |xi|}; sigma = 0 recovers sobolev_norm.

    A truncated mode sum is always finite, so divergence (sigma beyond the
    field's resolvable decay rate) is inferred structurally: the flag is set
    when the weighted per-|k| terms grow over the last quarter of the kept modes.
    """
    require_finite("sigma", sigma)
    require_finite("s", s)
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    spectrum = _spectrum(u)
    # at sigma = 0 the terms, and so the value, are sobolev_norm's bit for bit
    log_terms = _log_sobolev_terms(spectrum, s) + 2.0 * sigma * spectrum.abs_xi
    return GevreyNorm(_root_sums(log_terms[None])[0], _tail_growing(spectrum.abs_xi, log_terms))


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
    if m < 2:
        raise ConfigurationError(f"m must be an integer >= 2, got {m}")
    if j_max < 1:
        raise ConfigurationError(f"j_max must be >= 1, got {j_max}")
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
    if m < 0:
        raise ConfigurationError(f"m must be a non-negative integer, got {m}")
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
    if j_max < 1:
        raise ConfigurationError(f"j_max must be >= 1, got {j_max}")
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
