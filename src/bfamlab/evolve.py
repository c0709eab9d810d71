"""Explicit RK4 time marching with CFL step control and sampled states.

The nonlocal term's multiplier |xi|/(1+xi^2) is bounded by 1/2, so advection
dominates stability and an advective CFL condition suffices for the explicit
stepper. Steps are clipped to land exactly on each sample time, so a run keeps
the state at each sample time without interpolation; every per-sample reading
is taken from those states after the march (`scenarios.compute_diagnostics`).

A march holds one `dynamics._Operator` (the stage layout is described
there) and the band of rfft(u) for the state. An RK4 stage writes its band
into the operator's stage, loads the fields u and u_x with one stacked
irfft, squares them, and combines the squares into its band of -F with one
stacked rfft. Stage 1 reuses the fields that closed the previous step, so a
step is 16 real transforms in 8 kernel calls. Only the dealiased band
moves; modes above the cutoff keep their initial values. One reading per
step, peak = max|u|, feeds the blow-up test and the next CFL step.

A step allocates no array: every band operation writes with out= into the
march's work arrays, 41 numpy calls per step, 8 of them FFTs. The step's
coefficients and the constant 2 are read through complex 0-d views of one
work array, so no band operation converts a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import _Operator, _rhs_from_products, momentum
from .errors import BlowupError, ConfigurationError, require_finite
from .grid import RealField

SIGN_TOL = 1e-10
_VELOCITY_FLOOR = 1e-8


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
            require_finite(name, getattr(self, name))
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
    """Sampled states of one run.

    snapshots[i] is (t_i, field) with strictly increasing t_i, starting at the
    initial datum, and dt_used[i] is the size of the step that landed on t_i
    (0 for the initial datum). steps counts the completed RK4 steps, and
    dt_min and dt_max are the smallest and largest of their step sizes (None
    before the first step).
    """

    b: float
    snapshots: list = field(default_factory=list)
    dt_used: list = field(default_factory=list)
    steps: int = 0
    dt_min: Optional[float] = None
    dt_max: Optional[float] = None

    def _count_step(self, dt: float) -> None:
        self.steps += 1
        self.dt_min = dt if self.dt_min is None else min(self.dt_min, dt)
        self.dt_max = dt if self.dt_max is None else max(self.dt_max, dt)

    @property
    def final_state(self) -> RealField:
        return self.snapshots[-1][1]


def _cfl_step(peak: float, dx: float, cfg: EvolveConfig) -> float:
    """dt = min(dt_max, cfl_safety * dx / max(peak, velocity floor))."""
    return min(cfg.dt_max, cfg.cfl_safety * dx / max(peak, _VELOCITY_FLOOR))


class _March:
    """The carried state of an RK4 march and its work arrays, allocated once.

    `op` is the march's operator: its stage band is rewritten every stage,
    its modes above the band are those of the initial state, which never
    change, and after a step its fields hold u and u_x of the new state.
    `u_hat` is the band of rfft(u) for the state. `bands` rows 0..3 receive
    the stages' bands of -F (k1..k4 negated) and row 4 is band work space.
    `peak` is max|u| of the state.
    """

    def __init__(self, u: RealField, b: float, blowup_threshold: float):
        self.grid = u.grid
        self.blowup_threshold = blowup_threshold
        op = self.op = _Operator(u, b)
        self.u_hat = op.stage.copy()
        self.bands = k = np.empty((5, u.grid.band_size), dtype=complex)
        # the step's coefficients dt/2, dt/2, dt, dt/6 and the constant 2
        coefficients = np.array([0, 0, 0, 0, 2], dtype=complex)
        c = [coefficients[i, ...] for i in range(5)]
        self._coefficients, self._sixth, self._two = coefficients.real, c[3], c[4]
        self._stages = tuple((c[i], k[i], k[i + 1]) for i in range(3))
        self._k, self._middle, self._work = k[:4], k[1:3], k[4]
        self.peak = float(np.max(np.abs(u.samples)))

    def state(self) -> RealField:
        """The current state, with samples of its own (the work arrays are reused)."""
        return RealField(self.grid, self.op.fields[0].copy())

    def step(self, dt: float) -> None:
        """Advance the state by one classical four-stage Runge-Kutta step.

        A stage squares the operator's fields and combines the squares into
        its band of -F. The next stage spectrum u_hat + c k_i is formed as
        u_hat - c (-k_i) in the stage band (negation is exact), from which
        the operator loads the fields. k2 and k3 are doubled in place and one
        add.reduce sums k1 + 2 k2 + 2 k3 + k4 row by row, left to right, so a
        step allocates no array. Raises BlowupError unless the new peak is at
        most blowup_threshold, which a NaN peak fails too.
        """
        multiply, subtract = np.multiply, np.subtract
        op, combine = self.op, _rhs_from_products
        load, stage, fields, squares = op.load, op.stage, op.fields, op.squares
        u_hat, k, middle, work = self.u_hat, self._k, self._middle, self._work
        coefficients = self._coefficients
        coefficients[0] = coefficients[1] = 0.5 * dt
        coefficients[2] = dt
        coefficients[3] = dt / 6.0
        multiply(fields, fields, out=squares)
        combine(op, squares, k[0])
        for c, k_i, k_next in self._stages:
            multiply(c, k_i, out=work)
            subtract(u_hat, work, out=stage)
            load()
            multiply(fields, fields, out=squares)
            combine(op, squares, k_next)
        multiply(self._two, middle, out=middle)
        np.add.reduce(k, axis=0, out=work)
        multiply(self._sixth, work, out=work)
        subtract(u_hat, work, out=u_hat)
        np.copyto(stage, u_hat)
        load()
        peak = float(np.maximum.reduce(np.abs(fields[0], out=squares[0])))
        if not peak <= self.blowup_threshold:
            raise BlowupError(
                f"sup norm {peak:.3e} exceeded blow-up threshold {self.blowup_threshold:.3e}"
                if math.isfinite(peak)
                else "non-finite state after RK4 step: field samples are not all finite"
            )
        self.peak = peak


def rk4_step(
    u: RealField, dt: float, b: float, blowup_threshold: float = 1e6
) -> RealField:
    """One classical four-stage Runge-Kutta step of the b-family flow.

    The step of `run`'s march, taken once from u: only the band
    k < grid.band_size is updated, and modes above the cutoff keep their
    values.
    """
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    march = _March(u, b, blowup_threshold)
    march.step(dt)
    return march.state()


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
    m = momentum(u0).samples
    m_min, m_max = float(np.min(m)), float(np.max(m))
    scale = max(abs(m_min), abs(m_max), 1.0)
    return m_min >= -SIGN_TOL * scale or m_max <= SIGN_TOL * scale


def run(u0: RealField, cfg: EvolveConfig) -> Trajectory:
    """March from 0 to t_final, recording a snapshot at t = 0 and every
    sample_interval (plus t_final itself).

    Deterministic for a given (u0, cfg). On blow-up the partial trajectory
    and abort time are attached to the raised BlowupError.
    """
    if cfg.require_sign_certificate and not _check_sign_certificate(u0):
        raise ConfigurationError(
            "initial momentum changes sign; the sign-certificate hypothesis "
            "requires m(0,x) >= 0 everywhere or m(0,x) <= 0 everywhere"
        )

    traj = Trajectory(b=cfg.b)

    def record(t: float, u: RealField, dt_used: float):
        traj.snapshots.append((t, u))
        traj.dt_used.append(dt_used)

    record(0.0, u0, 0.0)
    march = _March(u0, cfg.b, cfg.blowup_threshold)
    t = 0.0
    eps = 1e-12 * max(1.0, cfg.t_final)
    for t_target in _sample_times(cfg):
        dt = 0.0
        while t_target - t > eps:
            dt_cfl = _cfl_step(march.peak, u0.grid.dx, cfg)
            remaining = t_target - t
            if dt_cfl >= remaining - eps:
                dt, t_next = remaining, t_target
            else:
                dt, t_next = dt_cfl, t + dt_cfl
            try:
                march.step(dt)
            except BlowupError as err:
                raise _diagnose_blowup(err, u0, t, traj) from err
            traj._count_step(dt)
            t = t_next
        t = t_target
        record(t, march.state(), dt)
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
