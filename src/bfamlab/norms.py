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

Factorially weighted sums are evaluated in log space (j! overflows doubles at
j = 171), from one kernel returning log |d^j u|_{H^s} for a whole array of
orders j. The log-sum-exp and the table of log j! are this module's own
numpy code, so the package needs numpy alone. Modes whose amplitude sits
below the round-off floor, |u_hat| below 1e-13 * max|u_hat|, are excluded
from these sums: high-order spectral derivatives amplify round-off by
|xi|^j and would otherwise masquerade as norm growth. The open-ended sums
(hm_norm, km_radius_norm) take 32 orders per block and stop at the first
run of three consecutive terms below 1e-16 of the running value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, TruncationError
from .grid import RealField

ROUNDOFF_FLOOR = 1e-13
TAIL_RTOL = 1e-16
_LOG_TAIL = math.log(TAIL_RTOL)
DEFAULT_J_MAX = 200
_ORDER_BLOCK = 32  # orders per (order, mode) array: bounds its memory when j_max is large
_log_factorials = np.array([math.lgamma(j + 1.0) for j in range(DEFAULT_J_MAX + 1)])


class GevreyNorm(NamedTuple):
    """Truncated Gevrey norm plus a structural divergence verdict."""

    value: float
    diverged: bool


def _spectrum(u: RealField):
    """(|xi_k|, L p_k |u_hat_k|^2, |u_hat_k|) over the half spectrum k = 0 .. N/2."""
    grid = u.grid
    amp = np.abs(np.fft.rfft(u.samples)) / grid.n_points
    pair = np.full(amp.size, 2.0)
    pair[[0, -1]] = 1.0
    return np.abs(grid.xi[: amp.size]), grid.box_length * pair * amp**2, amp


def _resolved_spectrum(u: RealField):
    """(|xi|, L p |u_hat|^2) over modes above the round-off floor; None if u == 0."""
    abs_xi, weight, amp = _spectrum(u)
    peak = float(amp.max())
    if peak == 0.0:
        return None
    usable = amp > ROUNDOFF_FLOOR * peak
    return abs_xi[usable], weight[usable]


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp(a) along axis; -inf where every term is -inf.

    The largest term (with its ties) is taken out of the sum and the rest
    enters through log1p (Blanchard, Higham and Higham, IMA J. Numer. Anal.
    41, 2021), which keeps the result within an ulp or so of the exact value.
    """
    peak = np.max(a, axis=axis, keepdims=True)
    top = a == peak
    ties = np.count_nonzero(top, axis=axis, keepdims=True)
    # skipping the shift where a == peak keeps -inf - -inf (NaN) out of an all -inf row
    shifted = np.subtract(a, peak, out=np.full_like(a, -np.inf), where=~top)
    rest = np.sum(np.exp(shifted), axis=axis, keepdims=True)
    return np.squeeze(np.log1p(rest / ties) + np.log(ties) + peak, axis=axis)


# the name bench/tracing.py wraps to count log-sum-exp calls per norm
logsumexp = _logsumexp


def _log_factorial(j: np.ndarray) -> np.ndarray:
    """log j! for a non-negative integer array j, from a table grown on demand."""
    global _log_factorials
    if j.max() >= _log_factorials.size:
        size = max(int(j.max()) + 1, 2 * _log_factorials.size)
        _log_factorials = np.array([math.lgamma(k + 1.0) for k in range(size)])
    return _log_factorials[j]


def _log_derivative_norms(spectrum, s: float, j: np.ndarray) -> np.ndarray:
    """log |d^j u|_{H^s} for each order in the integer array j.

    One log-sum-exp over the (order, mode) array of log L p (1+xi^2)^s
    |xi|^{2j} |u_hat|^2; the xi = 0 mode counts for j = 0 only.
    """
    abs_xi, weight = spectrum
    with np.errstate(divide="ignore", invalid="ignore"):
        # log 0 = -inf at xi = 0, and 0 * -inf = NaN in the j = 0 row
        power = 2.0 * j[:, None] * np.log(abs_xi)
    power[j == 0] = 0.0
    log_terms = (np.log(weight) + s * np.log1p(abs_xi**2)) + power
    return 0.5 * logsumexp(log_terms, axis=1)


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


def sobolev_norm(u: RealField, s: float) -> float:
    """H^s norm, ( L sum_k (1+xi^2)^s |u_hat|^2 )^{1/2}."""
    abs_xi, weight, _ = _spectrum(u)
    return float(np.sqrt(np.sum((1.0 + abs_xi**2) ** s * weight)))


def gevrey_norm(u: RealField, sigma: float, s: float) -> GevreyNorm:
    """Gevrey norm with weight e^{2 sigma |xi|}; sigma = 0 recovers sobolev_norm.

    A truncated mode sum is always finite, so divergence (sigma beyond the
    field's resolvable decay rate) is inferred structurally: the flag is set
    when the weighted per-|k| terms grow over the last quarter of the
    above-floor spectrum.
    """
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    spectrum = _resolved_spectrum(u)
    if spectrum is None:
        return GevreyNorm(0.0, False)
    abs_xi, weight = spectrum
    sobolev_terms = (1.0 + abs_xi**2) ** s * weight
    exponent = 2.0 * sigma * abs_xi
    # e^{2 sigma |xi|} scaled by its largest value, so the sum cannot overflow;
    # at sigma = 0 the sum is the Sobolev sum itself
    shift = float(exponent.max())
    total = np.sum(sobolev_terms * np.exp(exponent - shift))
    with np.errstate(over="ignore"):
        value = float(np.sqrt(total) * np.exp(0.5 * shift))
    return GevreyNorm(value, _tail_growing(abs_xi, exponent + np.log(sobolev_terms)))


def _tail_growing(abs_xi: np.ndarray, log_terms: np.ndarray) -> bool:
    """Least-squares slope of log term vs |xi| over the last quarter of the
    resolved k > 0 is positive. Half-spectrum modes are the distinct |xi|
    values, their terms already carrying both of +-k."""
    positive = abs_xi > 0
    n = int(np.count_nonzero(positive))
    start = (3 * n) // 4
    if n < 8 or n - start < 4:
        return False
    slope = np.polyfit(abs_xi[positive][start:], log_terms[positive][start:], 1)[0]
    return bool(slope > 0)


def hm_norm(u: RealField, sigma: float, m: int, j_max: int = DEFAULT_J_MAX) -> float:
    """sup over j of sigma^j (j+1)^2 / j! * |d^j u|_{H^{2m}}, in log space.

    The sup is truncated once three consecutive terms fall below 1e-16 of
    the running sup; if that never happens within j_max terms the norm is
    not resolvable at this resolution and a TruncationError is raised.
    """
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    if m < 2:
        raise ConfigurationError(f"m must be an integer >= 2, got {m}")
    if j_max < 1:
        raise ConfigurationError(f"j_max must be >= 1, got {j_max}")
    spectrum = _resolved_spectrum(u)
    if spectrum is None:
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
    return math.exp(log_sup)


def _log_km_terms(spectrum, sigma: float, j: np.ndarray) -> np.ndarray:
    """log of e^{2 sigma j} / (j!)^2 |d^j u|^2_{H^2} for each order in j."""
    # sigma j is 0 at j = 0 for every sigma: -inf * 0 would be NaN
    weight = np.where(j > 0, sigma, 0.0) * j
    return 2.0 * (weight - _log_factorial(j) + _log_derivative_norms(spectrum, 2.0, j))


def km_phi(u: RealField, sigma: float, m: int) -> float:
    """Kato-Masuda functional, 1/2 sum_{j<=m} e^{2 sigma j}/(j!)^2 |d^j u|^2_{H^2}.

    Any real sigma is admitted, and sigma = -inf gives the limit, half the
    squared H^2 norm. m = 0 reduces to half the squared H^2 norm as well.
    """
    if m < 0:
        raise ConfigurationError(f"m must be a non-negative integer, got {m}")
    spectrum = _resolved_spectrum(u)
    if spectrum is None:
        return 0.0
    return 0.5 * float(np.exp(logsumexp(_log_km_terms(spectrum, sigma, np.arange(m + 1)))))


def km_radius_norm(u: RealField, sigma: float, j_max: int = DEFAULT_J_MAX) -> float:
    """The m -> infinity limit norm ( 2 * km_phi )^{1/2}.

    The factorial weights guarantee eventual convergence; the sum stops when
    three consecutive terms fall below 1e-16 of the running total, and raises
    TruncationError if that does not happen within j_max terms (the field is
    not in the strip class at this sigma and resolution).
    """
    if j_max < 1:
        raise ConfigurationError(f"j_max must be >= 1, got {j_max}")
    spectrum = _resolved_spectrum(u)
    if spectrum is None:
        return 0.0
    total = _truncated_sum(
        lambda j: _log_km_terms(spectrum, sigma, j), j_max, np.logaddexp.accumulate
    )
    if total is None:
        raise TruncationError(
            f"km_radius_norm tail has not fallen below {TAIL_RTOL:g} by j = {j_max}"
        )
    return float(np.exp(0.5 * total))
