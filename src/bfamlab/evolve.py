"""Time marching by the time-Taylor series, with sampled states.

`run` marches with the local power series of the solution (`taylor`). Each
step builds c_0 .. c_K of the state, K = TAYLOR_ORDER, and proposes h = min
over j in {K-1, K} of (TAYLOR_TOL |u| / |c_j|)^{1/j}, every norm
`taylor._l2_norm` (Jorba and Zou, Experiment. Math. 14, 2005). The step
covers [t, t + min(h, t_final - t)], and a proposal within the landing
tolerance of t_final lands on it. Sample times are dense output: the state
advances by the whole step, the series summed at the step's span, and every
sample time in the step's window is then read from the series already
built, summed at t_s - t in Horner form; a sample at the window's end is
the new state itself. The step whose window reaches t_final ends the run.
So the steps depend on the state and t_final alone, not on sample_interval.
`run` records the steps in the `Trajectory`, refuses a step that does not
advance t and diagnoses a blow-up. Every sample read and every new state
passes the blow-up test. A series the recursion cut at COEFF_SUP_CAP steps
with the order it has, and one cut below order 2 is a blow-up. Where every
tail coefficient vanishes, h is infinite and one series gives every
remaining sample. A step costs the K orders of the recursion: 4K + 2 real
transforms in 2K + 2 kernel calls, 2K + 1 in 2K + 1 at b = 3; a sample read
takes none. The march builds one `dynamics._Operator` and one coefficient
store for the whole run: the state is the operator's fields[0], a step
loads the new state into it with `reset` in place of a new operator's load,
and each series is written into the store. Every per-sample reading is
taken from the sampled states after the march
(`scenarios.compute_diagnostics`).

Every state the march loads, the datum and the end state of each step, the
state at t_final included, also passes the resolution guard: its tail
fraction, the energy sum |u_hat_k|^2 over the top third of the band
(k >= 2m // 3 of the m band modes) over the same sum over the whole band,
must not exceed TAIL_TOL. The guard reads the band of rfft(state) that loading
the state left in the operator's stage, so it costs two dot products and no
transform; a zero state passes. A state above it is unresolved: the
solution's analyticity strip has narrowed below what the grid holds, as
past Camassa-Holm wave breaking (Constantin and Escher, Acta Math. 181,
1998), and the run ends with BlowupError there, at t = 0 for an unresolved
datum. A step's samples are recorded once its end state has passed. Where
the end state fails, the samples of the step's window are loaded and
guarded one at a time, up to the first that fails, so every recorded state
has passed the guard too. A resolved run loads one state more than it
builds series at, the state at t_final. On the acceptance suite's data
every state reads at most about 2.4e-15.

The `Trajectory` records the march by these rules. `spans` holds the span
of each completed series step, in order: a step that fails is not in it,
and the last span of a completed run ends at t_final. `dt_used[i]` is the
span of the step whose series sample i was read from, and 0 for the datum
alone. The time of an abort is the latest time whose state passed the
checks: the end of the last completed step, or the last sample of the
failing step's window that passed where that is later, so it is never
before the last snapshot's time. An unresolved datum aborts at t = 0, with
no span and the datum as the only snapshot.

Only the dealiased band moves: c_1 .. c_K have no modes above the cutoff,
so those modes keep their initial values up to the round-off of the Horner
sum. No option of `run` selects another march, and no `EvolveConfig` field
bounds a step. One reading per sample and per new state, peak = max|u|,
feeds the blow-up test, and one per loaded state, the tail fraction, the
resolution guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _Operator, momentum
from .errors import BlowupError, ConfigurationError, require_finite
from .grid import RealField, _finite_field
from .taylor import COEFF_SUP_CAP, _horner, _l2_norm, _recursion

SIGN_TOL = 1e-10
MAX_SAMPLES = 1e6
TAYLOR_ORDER = 16
TAYLOR_TOL = 1e-14
TAIL_TOL = 1e-10


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
    t_i's state (0 for the initial datum). spans lists the span of each
    completed series step, in order; the module docstring gives the rules.
    """

    b: float
    snapshots: list = field(default_factory=list)
    dt_used: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def final_state(self) -> RealField:
        return self.snapshots[-1][1]


def _check_resolved(op: _Operator) -> None:
    """Raise BlowupError when the tail fraction of the state `op` has just
    loaded, the energy of its band's top third over the band's, exceeds
    TAIL_TOL. `op.stage` must still hold the band of rfft(state); a zero
    state passes."""
    band = op.stage
    top = band[2 * len(band) // 3 :]  # the top third: k >= 2m // 3 of the m modes
    tail, total = np.vdot(top, top).real, np.vdot(band, band).real
    if tail > TAIL_TOL * total:
        raise BlowupError(
            f"the state is unresolved: band tail fraction {tail / total:.1e} exceeds "
            f"{TAIL_TOL:.0e}; raise n_points"
        )


def _check_peak(u: np.ndarray, blowup_threshold: float) -> None:
    """Raise BlowupError when max|u| exceeds blowup_threshold, which a NaN
    peak does too."""
    peak = float(np.max(np.abs(u)))
    if not peak <= blowup_threshold:
        raise BlowupError(
            f"sup norm {peak:.3e} exceeded blow-up threshold {blowup_threshold:.3e}"
            if math.isfinite(peak)
            else "non-finite state after Taylor step: field samples are not all finite"
        )


class _TaylorMarch:
    """The carried state of a time-Taylor march (module docstring).

    `op` is the one operator of the march and `op.fields[0]` the samples of
    the state, at first the datum's; a step loads the new state into it.
    Each load, the datum's in `__init__` and each step's, passes the
    resolution guard or raises BlowupError. `coeffs` holds c_1 .. c_K of
    the series `propose` built at the state, as rows of the march's one
    store, whose row 0 holds c_0; they stay valid until the next `propose`,
    so the series can still be read once a step has loaded its end state.
    """

    def __init__(self, u: RealField, b: float, blowup_threshold: float):
        self.op, self.blowup_threshold, self.coeffs = _Operator(u, b), blowup_threshold, None
        _check_resolved(self.op)
        self.store = np.empty((TAYLOR_ORDER + 2,) + self.op.fields.shape)

    def propose(self) -> float:
        """Build the series of the state and return its step h (inf when
        c_{K-1} and c_K both vanish). Raises BlowupError when the series is
        cut below order 2."""
        coeffs, sup = _recursion(self.op, self.store)
        order = len(coeffs)
        if order < 2:
            raise BlowupError(
                f"the Taylor series of the state stops at order {order}: c_{order + 1} "
                f"has sup norm {sup:.3e}, above the cap {COEFF_SUP_CAP:.0e}, so the "
                "temporal radius is effectively zero at this resolution"
            )
        dx = self.op.grid.dx
        size, h = _l2_norm(self.op.fields[0], dx), math.inf
        for j in (order - 1, order):
            norm = _l2_norm(coeffs[j - 1], dx)
            if norm > 0.0:
                h = min(h, (TAYLOR_TOL * size / norm) ** (1.0 / j))
        self.coeffs = coeffs
        return h

    def read(self, dt: float) -> RealField:
        """The series of the last `propose` summed at dt, with samples of its
        own. Raises BlowupError unless its peak is at most blowup_threshold."""
        u = _horner([self.store[0, 0], *self.coeffs], dt)
        _check_peak(u, self.blowup_threshold)
        return _finite_field(self.op.grid, u)

    def step(self, dt: float) -> RealField:
        """Advance the state to `read(dt)` and return it. Raises BlowupError
        unless the new state is resolved."""
        u = self.read(dt)
        self.op.reset(u.samples)
        _check_resolved(self.op)
        return u


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
    Deterministic for a given (u0, cfg). On blow-up, on an unresolved state
    (u0 included) and on a proposed step that does not advance t, the
    partial trajectory and abort time are attached to the raised
    BlowupError.
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
    times, i = _sample_times(cfg), 0
    t = t_passed = 0.0  # t_passed: the latest time whose state passed the checks
    eps = 1e-12 * max(1.0, cfg.t_final)
    try:
        march = _TaylorMarch(u0, cfg.b, cfg.blowup_threshold)
        while t < cfg.t_final:
            proposed = march.propose()
            remaining = cfg.t_final - t
            if proposed >= remaining - eps:
                dt, t_next = remaining, cfg.t_final
            else:
                dt, t_next = proposed, t + proposed
            if not t_next > t:
                raise BlowupError(f"the proposed step {proposed:.3e} does not advance t")
            first = i
            while i < len(times) and times[i] <= t_next:
                i += 1
            window = times[first:i]
            try:
                end = march.step(dt)
            except BlowupError:
                # each sample of the window in turn, up to the first that fails
                for t_s in window:
                    record(t_s, march.step(t_s - t), dt)
                    t_passed = t_s
                raise
            for t_s in window:
                record(t_s, end if t_s - t == dt else march.read(t_s - t), dt)
                t_passed = t_s
            traj.spans.append(dt)
            t = t_passed = t_next
    except BlowupError as err:
        raise _diagnose_blowup(err, u0, t_passed, traj) from err
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
