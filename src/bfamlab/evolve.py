"""Explicit RK4 time marching with CFL step control and sampled diagnostics.

The nonlocal term's multiplier |xi|/(1+xi^2) is bounded by 1/2, so advection
dominates stability and an advective CFL condition suffices for the explicit
stepper. Steps are clipped to land exactly on each sample time, so diagnostics
are recorded without interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .dynamics import _rhs_band, momentum_max, momentum_min
from .errors import BlowupError, ConfigurationError, NumericalError
from .grid import RealField

SIGN_TOL = 1e-10
_VELOCITY_FLOOR = 1e-8

Monitor = Callable[[RealField], float]


@dataclass(frozen=True)
class EvolveConfig:
    b: float
    t_final: float
    dt_max: float
    sample_interval: float
    cfl_safety: float = 0.2
    blowup_threshold: float = 1e6
    require_sign_certificate: bool = False

    def __post_init__(self):
        for name in ("b", "t_final", "dt_max", "sample_interval", "blowup_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.t_final < 0:
            raise ConfigurationError(f"t_final must be >= 0, got {self.t_final}")
        if self.dt_max <= 0:
            raise ConfigurationError(f"dt_max must be positive, got {self.dt_max}")
        if self.sample_interval <= 0:
            raise ConfigurationError(
                f"sample_interval must be positive, got {self.sample_interval}"
            )
        if not 0 < self.cfl_safety <= 1:
            raise ConfigurationError(
                f"cfl_safety must lie in (0, 1], got {self.cfl_safety}"
            )
        if self.blowup_threshold <= 0:
            raise ConfigurationError("blowup_threshold must be positive")


@dataclass
class Trajectory:
    """Sampled states and monitor values of one run.

    snapshots[i] is (t_i, field) with strictly increasing t_i, starting at the
    initial datum; diagnostics[i] maps 't', 'dt_used', and each monitor name
    to its value at t_i.
    """

    b: float
    snapshots: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    @property
    def final_state(self) -> RealField:
        return self.snapshots[-1][1]


def cfl_dt(u: RealField, cfg: EvolveConfig) -> float:
    """dt = min(dt_max, cfl_safety * dx / max|u|), with a velocity floor."""
    speed = max(float(np.max(np.abs(u.samples))), _VELOCITY_FLOOR)
    return min(cfg.dt_max, cfg.cfl_safety * u.grid.dx / speed)


def rk4_step(
    u: RealField, dt: float, b: float, blowup_threshold: float = 1e6
) -> RealField:
    """One classical four-stage Runge-Kutta step of the b-family flow.

    The stages run on the half spectrum rfft(u). Every increment is
    dealiased, so only the band k < grid.band_size is updated and modes
    above the cutoff keep their values. One RealField is built, for the
    result; its finiteness check covers every stage, since a non-finite
    stage value reaches the result through the band.
    """
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if not np.isfinite(b):
        raise ConfigurationError(f"b must be finite, got {b}")
    grid = u.grid
    n, m = grid.n_points, grid.band_size
    u_hat = np.fft.rfft(u.samples)
    k1 = _rhs_band(grid, b, u_hat, u.samples)
    stage_hat = u_hat.copy()
    stage_hat[:m] = u_hat[:m] + (0.5 * dt) * k1
    k2 = _rhs_band(grid, b, stage_hat, np.fft.irfft(stage_hat, n))
    stage_hat[:m] = u_hat[:m] + (0.5 * dt) * k2
    k3 = _rhs_band(grid, b, stage_hat, np.fft.irfft(stage_hat, n))
    stage_hat[:m] = u_hat[:m] + dt * k3
    k4 = _rhs_band(grid, b, stage_hat, np.fft.irfft(stage_hat, n))
    u_hat[:m] += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    try:
        out = RealField(grid, np.fft.irfft(u_hat, n))
    except NumericalError as err:
        raise BlowupError(f"non-finite state after RK4 step: {err}") from err
    peak = float(np.max(np.abs(out.samples)))
    if peak > blowup_threshold:
        raise BlowupError(
            f"sup norm {peak:.3e} exceeded blow-up threshold {blowup_threshold:.3e}"
        )
    return out


def _sample_times(cfg: EvolveConfig) -> list:
    if cfg.t_final == 0.0:
        return []
    n_whole = int(np.floor(cfg.t_final / cfg.sample_interval + 1e-9))
    times = [k * cfg.sample_interval for k in range(1, n_whole + 1)]
    if not times or times[-1] < cfg.t_final * (1.0 - 1e-12):
        times.append(cfg.t_final)
    else:
        times[-1] = cfg.t_final
    return times


def _check_sign_certificate(u0: RealField) -> bool:
    m_min, m_max = momentum_min(u0), momentum_max(u0)
    scale = max(abs(m_min), abs(m_max), 1.0)
    return m_min >= -SIGN_TOL * scale or m_max <= SIGN_TOL * scale


def run(
    u0: RealField,
    cfg: EvolveConfig,
    monitors: Optional[Mapping[str, Monitor]] = None,
) -> Trajectory:
    """March from 0 to t_final, recording a snapshot and monitor values at
    t = 0 and every sample_interval (plus t_final itself).

    Deterministic for a given (u0, cfg). On blow-up the partial trajectory
    and abort time are attached to the raised BlowupError.
    """
    monitors = dict(monitors or {})
    if cfg.require_sign_certificate and not _check_sign_certificate(u0):
        raise ConfigurationError(
            "initial momentum changes sign; the sign-certificate hypothesis "
            "requires m(0,x) >= 0 everywhere or m(0,x) <= 0 everywhere"
        )

    traj = Trajectory(b=cfg.b)

    def record(t: float, u: RealField, dt_used: float):
        row = {"t": t, "dt_used": dt_used}
        for name, fn in monitors.items():
            row[name] = float(fn(u))
        traj.snapshots.append((t, u))
        traj.diagnostics.append(row)

    record(0.0, u0, 0.0)
    u, t = u0, 0.0
    eps = 1e-12 * max(1.0, cfg.t_final)
    for t_target in _sample_times(cfg):
        dt = 0.0
        while t_target - t > eps:
            dt_cfl = cfl_dt(u, cfg)
            remaining = t_target - t
            if dt_cfl >= remaining - eps:
                dt, t_next = remaining, t_target
            else:
                dt, t_next = dt_cfl, t + dt_cfl
            try:
                u = rk4_step(u, dt, cfg.b, cfg.blowup_threshold)
            except BlowupError as err:
                raise _diagnose_blowup(err, u0, t, traj) from err
            t = t_next
        t = t_target
        record(t, u, dt)
    return traj


def _diagnose_blowup(
    err: BlowupError, u0: RealField, t: float, traj: Trajectory
) -> BlowupError:
    # The sign hypothesis rules out genuine blow-up; distinguish a violated
    # hypothesis from a numerics bug in the abort message.
    if _check_sign_certificate(u0):
        hint = (
            "initial momentum is sign-definite, so blow-up is not expected; "
            "suspect a resolution or step-size problem"
        )
    else:
        hint = "initial momentum changes sign, so blow-up may be genuine"
    return BlowupError(f"aborted at t = {t:.6g}: {err} ({hint})", time=t, trajectory=traj)
