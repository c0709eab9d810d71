"""Analyticity-radius estimation and the explicit strip lower bound.

Two complementary views of the spatial analyticity radius:

* empirical: the exponential decay rate of the Fourier coefficients,
  recovered by a log-linear fit over the resolved part of the half spectrum;
* theoretical: the a-priori strip lower bound r(t) = e^{sigma(t)},
  sigma(t) = gamma - lambda (e^{A(mu) t / 2} - 1), driven by the explicit
  rates A(p) = (32 + 16|b| + 64|3-b|) p and
  B(p, q) = (64 + 32|b| + 256|3-b|) (1 + p) sqrt(q),
  with mu = 1 + max over the run of the H^2 norm, gamma < 0 fixed, and
  lambda = 2 B(mu, phi0) / A(mu) obtained by integrating the comparison
  system  dPhi/dt = A(mu) Phi,  dsigma/dt = -B(mu, Phi)  in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InsufficientBandError, require_integer
from .norms import _line_fit, _spectrum, km_phi, sobolev_norm

DEFAULT_FIT_K_MIN = 4
DEFAULT_M_TRUNC = 32
MIN_FIT_MODES = 8


@dataclass(frozen=True)
class RadiusFit:
    """Fitted spectral decay rate sigma_hat with fit quality and band used."""

    sigma_hat: float
    fit_quality: float
    band: tuple
    floor_hit: bool

    def __post_init__(self):
        if self.band[0] >= self.band[1]:
            raise ConfigurationError(f"degenerate fit band {self.band}")
        if self.sigma_hat < 0:
            raise ConfigurationError("sigma_hat must be clamped at 0")


@dataclass(frozen=True)
class KMBound:
    """Constants of the strip lower bound sigma(t) = gamma - lam*(e^{K t/2}-1)."""

    b: float
    mu: float
    K_rate: float
    gamma: float
    lam: float
    phi0: float

    def __post_init__(self):
        if self.gamma >= 0:
            raise ConfigurationError(f"gamma must be negative, got {self.gamma}")
        if self.lam < 0 or self.K_rate <= 0:
            raise ConfigurationError("lambda must be >= 0 and K_rate > 0")


def fit_decay_radius(u, k_min: int = DEFAULT_FIT_K_MIN) -> RadiusFit:
    """Fit log|u_hat_k| = const - sigma_hat * |xi_k| over the usable band.

    u is a RealField or its reading `norms._spectrum(u)`, as every norm
    takes; the half-spectrum modes k = 1 .. N/2 - 1 are fitted. Modes below
    k_min encode bulk shape rather than tail decay and are excluded, as are
    the modes the reading drops below its round-off floor.
    Raises ConfigurationError unless k_min is an integer >= 1, and
    InsufficientBandError with fewer than 8 usable modes.
    """
    require_integer("k_min", k_min, 1)
    spectrum = _spectrum(u)
    if spectrum.amp.size == 0:
        raise InsufficientBandError("cannot fit a decay rate to a zero spectrum")
    ks = np.flatnonzero(spectrum.kept)
    first, stop = k_min, spectrum.kept.size - 1
    usable = (ks >= first) & (ks < stop)
    count = int(np.count_nonzero(usable))
    if count < MIN_FIT_MODES:
        raise InsufficientBandError(
            f"only {count} usable modes above k = {k_min}; need at least {MIN_FIT_MODES}"
        )
    floor_hit = count < stop - first
    xs, ys = spectrum.abs_xi[usable], np.log(spectrum.amp[usable])
    slope, intercept = _line_fit(xs, ys)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    sigma_hat = max(0.0, -slope)
    if floor_hit and _decay_accelerating(xs, ys):
        warnings.warn(
            "spectral decay steepens with |xi| (super-exponential); the fitted "
            "sigma_hat is a band average, the true radius is unbounded at this "
            "resolution",
            stacklevel=2,
        )
    return RadiusFit(
        sigma_hat=sigma_hat,
        fit_quality=min(1.0, max(0.0, r2)),
        band=(int(ks[usable][0]), int(ks[usable][-1])),
        floor_hit=floor_hit,
    )


def _decay_accelerating(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Second-half slope clearly steeper than the first half's."""
    mid = xs.size // 2
    if mid < 3 or xs.size - mid < 3:
        return False
    s1, s2 = _line_fit(xs[:mid], ys[:mid])[0], _line_fit(xs[mid:], ys[mid:])[0]
    return s2 < 1.5 * s1 < 0


def km_constants(b: float, p: float, q: float) -> tuple:
    """The explicit rates (A(p), B(p, q)) of the strip-shrinkage bound."""
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be non-negative, got p={p}, q={q}")
    a_val = (32.0 + 16.0 * abs(b) + 64.0 * abs(3.0 - b)) * p
    b_val = (64.0 + 32.0 * abs(b) + 256.0 * abs(3.0 - b)) * (1.0 + p) * math.sqrt(q)
    return a_val, b_val


def km_lambda(b: float, mu: float, phi0: float) -> float:
    """lambda = 2 B(mu, phi0) / A(mu).

    Closed form of the comparison system dPhi/dt = A(mu) Phi,
    dsigma/dt = -B(mu, Phi): with K = A(mu), Phi(t) = phi0 e^{K t} gives
    sigma(t) = sigma(0) - (2 B(mu, phi0)/K)(e^{K t/2} - 1).
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    a_val, b_val = km_constants(b, mu, phi0)
    return 2.0 * b_val / a_val


def km_bound_sigma(t: float, bound: KMBound) -> float:
    """sigma(t) = gamma - lambda (e^{K t / 2} - 1).

    Saturates to -inf once e^{K t / 2} overflows double precision; the true
    value is below the representable range there.
    """
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    with np.errstate(over="ignore"):
        growth = float(np.expm1(0.5 * bound.K_rate * t))
        return bound.gamma - bound.lam * growth if bound.lam > 0 else bound.gamma


def km_bound_radius(t: float, bound: KMBound) -> float:
    """r(t) = e^{sigma(t)}; in (0, 1) for gamma < 0, lambda > 0."""
    sigma = km_bound_sigma(t, bound)
    return float(np.exp(sigma)) if math.isfinite(sigma) else 0.0


def km_bound_from_run(
    trajectory, gamma: float, m_trunc: int = DEFAULT_M_TRUNC, h2_norms=None
) -> KMBound:
    """Populate the bound constants from a sampled trajectory.

    mu is the sampled maximum of 1 + |u|_{H^2} (under-sampling can
    under-estimate it). h2_norms, when given, are the H^2 norms of the
    snapshots in order, as a caller that already took them passes them;
    otherwise they are computed from the snapshots. phi0 evaluates the
    strip functional of the initial state at sigma = gamma, matching the
    ODE initial condition.
    """
    if not trajectory.snapshots:
        raise ConfigurationError("trajectory has no snapshots")
    if h2_norms is None:
        h2_norms = [sobolev_norm(u, 2.0) for _, u in trajectory.snapshots]
    elif len(h2_norms) != len(trajectory.snapshots):
        raise ConfigurationError(
            f"{len(h2_norms)} H^2 norms for {len(trajectory.snapshots)} snapshots"
        )
    mu = 1.0 + max(h2_norms)
    phi0 = km_phi(trajectory.snapshots[0][1], gamma, m_trunc)
    lam = km_lambda(trajectory.b, mu, phi0)
    k_rate, _ = km_constants(trajectory.b, mu, phi0)
    return KMBound(b=trajectory.b, mu=mu, K_rate=k_rate, gamma=gamma, lam=lam, phi0=phi0)


def default_gamma(sigma_hat0: float) -> float:
    """Tie the certified initial strip to the measured one, clipped negative.

    gamma = min(-0.05, log(0.9 * min(1, sigma_hat0))), floored so that a
    tiny measured radius cannot push gamma to -inf. A NaN sigma_hat0, the
    reading of a spectrum with no usable fit, gives -0.05.
    """
    if math.isnan(sigma_hat0):
        return -0.05
    measured = min(1.0, max(float(sigma_hat0), 1e-8))
    return min(-0.05, math.log(0.9 * measured))
