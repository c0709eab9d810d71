"""Time marching by the time-Taylor series, with sampled states.

`run` marches with the local power series of the solution (`taylor`). Each
step builds c_0 .. c_K of the state, K = TAYLOR_ORDER, and proposes
h = min over j in {K-1, K} of (TAYLOR_TOL |u| / |c_j|)^{1/j}, every norm
`taylor._l2_norm` (Jorba and Zou, Experiment. Math. 14, 2005). The step
covers [t, t + min(h, t_final - t)], and a proposal within the landing
tolerance of t_final lands on it. Sample times are dense output: every
sample time in the step's window is read from the series already built,
summed at t_s - t in Horner form, and the state then advances by the whole
step, the series summed at the step's span, unless the window reached
t_final, which ends the run. So the steps depend on the state and t_final
alone, not on sample_interval. `run` counts the steps in the `Trajectory`,
refuses a step that does not advance t and diagnoses a blow-up. Every
sample read and every new state passes the blow-up test. A series the
recursion cut at COEFF_SUP_CAP steps with the order it has, and one cut
below order 2 is a blow-up. Where every tail coefficient vanishes, h is
infinite and one series gives every remaining sample. A step costs the K
orders of the recursion: 4K + 2 real transforms in 2K + 2 kernel calls,
2K + 1 in 2K + 1 at b = 3; a sample read takes none. Every per-sample
reading is taken from the sampled states after the march
(`scenarios.compute_diagnostics`).

The `Trajectory` records the march by these rules. `steps` counts the series
used, and `dt_min` and `dt_max` are the smallest and largest of their spans;
the last span ends at t_final. `dt_used[i]` is the span of the step whose
series sample i was read from, and 0 for the datum alone. The time of an
abort is the latest time whose state passed the checks: the end of the last
completed step, or the last sample read from the failing step where that is
later, so it is never before the last snapshot's time.

RK4 is the reference march that `bfamlab taylor`, acceptance criterion 06
and the tests compare the series with, because it does not sum the series:
one `_March` stepped n times at t/n, or `rk4_step` in a loop. No option of
`run` selects it, and no `EvolveConfig` field bounds a step. The march holds
one `dynamics._Operator` (the stage layout is described there) and the band
of rfft(u) for the state. An RK4 stage writes its band into the operator's
stage, loads the fields u and u_x with one stacked irfft, squares them, and
combines the squares into its band of -F with one stacked rfft. Stage 1
reuses the fields that closed the previous step, so a step is 16 real
transforms in 8 kernel calls. At b = 3 the operator holds u alone, with no
u_x row, and a step is 8 real transforms in 8 calls.

Only the dealiased band moves: under RK4 the modes above the cutoff keep
their initial values exactly, and under the series, whose c_1 .. c_K have
no modes there, up to the round-off of the Horner sum. One reading per
sample and per new state, peak = max|u|, feeds the blow-up test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import _Operator, _rhs_from_products, momentum
from .errors import BlowupError, ConfigurationError, require_finite
from .grid import RealField, _finite_field
from .taylor import COEFF_SUP_CAP, _horner, _l2_norm, _recursion

SIGN_TOL = 1e-10
MAX_SAMPLES = 1e6
TAYLOR_ORDER = 16
TAYLOR_TOL = 1e-14


@dataclass(frozen=True, kw_only=True)
class EvolveConfig:
    b: float
    t_final: float
    sample_interval: float
    blowup_threshold: float = 1e6
    require_sign_certificate: bool = False

    def __post_init__(self):
        for name in ("b", "t_final", "sample_interval", "blowup_threshold"):
            require_finite(name, getattr(self, name))
        if self.t_final < 0:
            raise ConfigurationError(f"t_final must be >= 0, got {self.t_final}")
        if self.sample_interval <= 0:
            raise ConfigurationError(
                f"sample_interval must be positive, got {self.sample_interval}"
            )
        # each sample keeps a state of N doubles
        if not self.t_final / self.sample_interval <= MAX_SAMPLES:
            raise ConfigurationError(
                f"t_final / sample_interval must be at most {MAX_SAMPLES:.0e}, got "
                f"{self.t_final / self.sample_interval:.3g}"
            )
        if self.blowup_threshold <= 0:
            raise ConfigurationError("blowup_threshold must be positive")


@dataclass
class Trajectory:
    """Sampled states of one run.

    snapshots[i] is (t_i, field) with strictly increasing t_i, starting at the
    initial datum, and dt_used[i] is the span of the step whose series gave
    t_i's state (0 for the initial datum). steps counts the completed series
    steps, and dt_min and dt_max are the smallest and largest of their spans
    (None before the first step); the module docstring gives the rules.
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


def _check_peak(u: np.ndarray, blowup_threshold: float, stepper: str) -> None:
    """Raise BlowupError when max|u| exceeds blowup_threshold, which a NaN
    peak does too."""
    peak = float(np.max(np.abs(u)))
    if not peak <= blowup_threshold:
        raise BlowupError(
            f"sup norm {peak:.3e} exceeded blow-up threshold {blowup_threshold:.3e}"
            if math.isfinite(peak)
            else f"non-finite state after {stepper} step: field samples are not all finite"
        )


class _March:
    """The carried state of the RK4 reference march (module docstring).

    `op` is the march's operator: its stage band is rewritten every stage,
    its modes above the band are those of the initial state, which never
    change, and after a step its fields hold u and u_x (u alone at b = 3)
    of the new state.
    `u_hat` is the band of rfft(u) for the state.
    """

    def __init__(self, u: RealField, b: float, blowup_threshold: float):
        self.grid = u.grid
        self.blowup_threshold = blowup_threshold
        self.op = _Operator(u, b)
        self.u_hat = self.op.stage.copy()

    def state(self) -> RealField:
        """The current state, with samples of its own (the operator's are reused)."""
        return RealField(self.grid, self.op.fields[0].copy())

    def _minus_f(self, band: Optional[np.ndarray] = None) -> np.ndarray:
        """The band of -F at the stage whose band is `band`, loaded into the
        operator first; None takes the fields the operator holds."""
        op = self.op
        if band is not None:
            op.stage[...] = band
            op.load()
        squares = np.multiply(op.fields, op.fields, out=op.squares)
        return _rhs_from_products(op, squares, np.empty_like(self.u_hat))

    def step(self, dt: float) -> None:
        """Advance the state by one classical four-stage Runge-Kutta step.

        Each stage spectrum u_hat + c k_i is formed as u_hat - c (-k_i)
        (negation is exact). Raises BlowupError unless the new peak is at
        most blowup_threshold, which a NaN peak fails too.
        """
        u_hat = self.u_hat
        k1 = self._minus_f()
        k2 = self._minus_f(u_hat - (0.5 * dt) * k1)
        k3 = self._minus_f(u_hat - (0.5 * dt) * k2)
        k4 = self._minus_f(u_hat - dt * k3)
        self.u_hat = u_hat = u_hat - (dt / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        self.op.stage[...] = u_hat
        self.op.load()
        _check_peak(self.op.fields[0], self.blowup_threshold, "RK4")


class _TaylorMarch:
    """The carried state of a time-Taylor march (module docstring).

    `u` holds the samples of the state, at first the datum's; a step replaces
    it with a new array and never writes into one. `coeffs` holds c_1 .. c_K
    of the series `propose` built at the state.
    """

    def __init__(self, u: RealField, b: float, blowup_threshold: float):
        self.grid, self.b, self.blowup_threshold = u.grid, b, blowup_threshold
        self.u, self.coeffs = u.samples, None

    def propose(self) -> float:
        """Build the series of the state and return its step h (inf when
        c_{K-1} and c_K both vanish). Raises BlowupError when the series is
        cut below order 2."""
        coeffs, sup = _recursion(_finite_field(self.grid, self.u), self.b, TAYLOR_ORDER)
        order = len(coeffs)
        if order < 2:
            raise BlowupError(
                f"the Taylor series of the state stops at order {order}: c_{order + 1} "
                f"has sup norm {sup:.3e}, above the cap {COEFF_SUP_CAP:.0e}, so the "
                "temporal radius is effectively zero at this resolution"
            )
        dx = self.grid.dx
        size, h = _l2_norm(self.u, dx), math.inf
        for j in (order - 1, order):
            norm = _l2_norm(coeffs[j - 1], dx)
            if norm > 0.0:
                h = min(h, (TAYLOR_TOL * size / norm) ** (1.0 / j))
        self.coeffs = coeffs
        return h

    def read(self, dt: float) -> RealField:
        """The series of the last `propose` summed at dt, with samples of its
        own. Raises BlowupError unless its peak is at most blowup_threshold."""
        u = _horner([self.u, *self.coeffs], dt)
        _check_peak(u, self.blowup_threshold, "Taylor")
        return _finite_field(self.grid, u)

    def step(self, dt: float) -> None:
        """Advance the state to `read(dt)`."""
        self.u = self.read(dt).samples


def rk4_step(
    u: RealField, dt: float, b: float, blowup_threshold: float = 1e6
) -> RealField:
    """One classical four-stage Runge-Kutta step of the b-family flow.

    The step of the reference march, taken once from u: only the band
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
    """True when the momentum of u0 keeps one sign on the grid, up to
    SIGN_TOL * max|m|, relative at every amplitude; m = 0 passes."""
    m = momentum(u0).samples
    m_min, m_max = float(np.min(m)), float(np.max(m))
    scale = max(abs(m_min), abs(m_max))
    return m_min >= -SIGN_TOL * scale or m_max <= SIGN_TOL * scale


def run(u0: RealField, cfg: EvolveConfig) -> Trajectory:
    """March from 0 to t_final, recording a snapshot at t = 0 and every
    sample_interval (plus t_final itself).

    Each sample is read from the series of the step whose window holds it,
    so the steps do not depend on sample_interval (module docstring).
    Deterministic for a given (u0, cfg). On blow-up, and on a proposed step
    that does not advance t, the partial trajectory and abort time are
    attached to the raised BlowupError.
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
    march = _TaylorMarch(u0, cfg.b, cfg.blowup_threshold)
    times, i = _sample_times(cfg), 0
    t = t_passed = 0.0  # t_passed: the latest time whose state passed the checks
    eps = 1e-12 * max(1.0, cfg.t_final)
    while t < cfg.t_final:
        try:
            proposed = march.propose()
            remaining = cfg.t_final - t
            if proposed >= remaining - eps:
                dt, t_next = remaining, cfg.t_final
            else:
                dt, t_next = proposed, t + proposed
            if not t_next > t:
                raise BlowupError(f"the proposed step {proposed:.3e} does not advance t")
            while i < len(times) and times[i] <= t_next:
                record(times[i], march.read(times[i] - t), dt)
                t_passed, i = times[i], i + 1
            if t_next < cfg.t_final:
                march.step(dt)
        except BlowupError as err:
            raise _diagnose_blowup(err, u0, t_passed, traj) from err
        traj._count_step(dt)
        t = t_passed = t_next
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
