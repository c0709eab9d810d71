"""Run configuration, initial data, persistence, and the full pipeline.

A run is described by an INI-style config file with sections
[grid], [run], [init], [diagnostics], [output]; the exact grammar and the
default for every key are documented in the README. Config files are the
reproducibility unit: each run directory receives a config copy, the
diagnostics CSV (plus plot-ready two-column companions), the initial and
final field snapshots, and a JSON manifest.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from . import analyticity, dynamics, evolve, norms
from .errors import BlowupError, ConfigurationError, InsufficientBandError, SnapshotError
from .grid import DEFAULT_DEALIAS_FRACTION, GridSpec, RealField, dft, make_grid

INIT_FAMILIES = ("gaussian", "sech", "sine", "momentum_bump")

SNAPSHOT_MAGIC = b"BGEV"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIQddd")  # magic, version, N, L, t, b

DIAGNOSTIC_COLUMNS = (
    "t",
    "l2",
    "h1",
    "h2",
    "mean_u",
    "m_l1",
    "m_min",
    "sigma_hat",
    "fit_quality",
    "km_sigma_bound",
    "dt_used",
)


@dataclass(frozen=True)
class InitSpec:
    family: str
    amplitude: float = 1.0
    width: float = 1.0
    center: Optional[float] = None
    mode: int = 1

    def __post_init__(self):
        if self.family not in INIT_FAMILIES:
            raise ConfigurationError(
                f"unknown init family {self.family!r}; choose from {INIT_FAMILIES}"
            )
        if self.amplitude <= 0 or self.width <= 0:
            raise ConfigurationError("amplitude and width must be positive")
        if self.mode < 1:
            raise ConfigurationError(f"mode must be a positive integer, got {self.mode}")


@dataclass(frozen=True)
class DiagnosticsSpec:
    sigma_list: tuple = ()
    s: float = 2.0
    fit_k_min: int = analyticity.DEFAULT_FIT_K_MIN
    gamma_override: Optional[float] = None
    m_trunc: int = analyticity.DEFAULT_M_TRUNC

    def __post_init__(self):
        if self.sigma_list and self.s <= 1.5:
            raise ConfigurationError(
                f"Gevrey diagnostics require s > 3/2 (analyticity hypothesis on the "
                f"datum class); got s = {self.s}"
            )
        if any(sigma < 0 for sigma in self.sigma_list):
            raise ConfigurationError("sigma_list entries must be >= 0")
        if self.gamma_override is not None and self.gamma_override >= 0:
            raise ConfigurationError(
                f"gamma must be negative, got {self.gamma_override}"
            )
        if self.fit_k_min < 1 or self.m_trunc < 0:
            raise ConfigurationError("fit_k_min must be >= 1 and m_trunc >= 0")


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    b: float
    evolve: evolve.EvolveConfig
    init: InitSpec
    diagnostics: DiagnosticsSpec
    output_dir: str


@dataclass(frozen=True)
class DiagnosticsRow:
    """One sampling instant; column order is DIAGNOSTIC_COLUMNS."""

    t: float
    l2: float
    h1: float
    h2: float
    mean_u: float
    m_l1: float
    m_min: float
    sigma_hat: float
    fit_quality: float
    km_sigma_bound: float
    dt_used: float

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in DIAGNOSTIC_COLUMNS)


@dataclass(frozen=True)
class Snapshot:
    n_points: int
    box_length: float
    t: float
    b: float
    samples: np.ndarray
    version: int = SNAPSHOT_VERSION


# ---------------------------------------------------------------------------
# initial data


def _periodized(profile, x: np.ndarray, center: float, box_length: float) -> np.ndarray:
    # +-1 box images restore periodicity to machine precision for L >= 40*width
    out = np.zeros_like(x)
    for shift in (-1.0, 0.0, 1.0):
        out += profile(x - center + shift * box_length)
    return out


def initial_data(family: str, params: Mapping[str, float], grid: GridSpec) -> RealField:
    """Build the initial state for one of the supported datum families.

    gaussian:       a * exp(-(x-c)^2 / w^2), periodized
    sech:           a * sech((x-c)/w), periodized
    sine:           a * sin(2 pi q x / L)
    momentum_bump:  u with momentum m = u - u_xx a non-negative periodized
                    gaussian bump (sign certificate holds by construction)
    """
    try:
        spec = InitSpec(family=family, **params)
    except TypeError as err:
        raise ConfigurationError(f"bad parameters for family {family!r}: {err}") from err
    x = grid.x
    length = grid.box_length
    center = spec.center if spec.center is not None else 0.5 * length
    a, w = spec.amplitude, spec.width
    if family == "gaussian":
        samples = _periodized(lambda y: a * np.exp(-(y / w) ** 2), x, center, length)
        return RealField(grid, samples)
    if family == "sech":
        samples = _periodized(lambda y: a / np.cosh(y / w), x, center, length)
        return RealField(grid, samples)
    if family == "sine":
        # phase built from node indices: x_j = j L / N makes L cancel exactly
        phase = (2.0 * np.pi * spec.mode / grid.n_points) * np.arange(grid.n_points)
        return RealField(grid, a * np.sin(phase))
    bump = _periodized(lambda y: a * np.exp(-(y / w) ** 2), x, center, length)
    return dynamics.inverse_momentum(RealField(grid, bump))


def build_initial(cfg: RunConfig) -> RealField:
    spec = cfg.init
    params = {"amplitude": spec.amplitude, "width": spec.width, "mode": spec.mode}
    if spec.center is not None:
        params["center"] = spec.center
    return initial_data(spec.family, params, cfg.grid)


# ---------------------------------------------------------------------------
# config file grammar

_KNOWN_KEYS = {
    "grid": ("n_points", "box_length", "dealias_fraction"),
    "run": (
        "b",
        "t_final",
        "dt_max",
        "sample_interval",
        "cfl_safety",
        "blowup_threshold",
        "require_sign_certificate",
    ),
    "init": ("family", "amplitude", "width", "center", "mode"),
    "diagnostics": ("sigma_list", "s", "fit_k_min", "gamma", "m_trunc"),
    "output": ("dir",),
}

_DEFAULTS = {
    "n_points": 512,
    "box_length": 2.0 * math.pi,
    "t_final": 1.0,
    "dt_max": 0.02,
    "sample_interval": 0.1,
    "output_dir": "bfamlab_run",
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file; unknown or duplicate keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigurationError(f"config syntax error: {err}") from err

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, default=None, convert=float):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            return convert(raw)
        except ValueError as err:
            raise ConfigurationError(
                f"cannot parse {section}.{key} = {raw!r}: {err}"
            ) from err

    def get_bool(section, key, default):
        if not parser.has_option(section, key):
            return default
        try:
            return parser.getboolean(section, key)
        except ValueError as err:
            raise ConfigurationError(f"{section}.{key} must be a boolean") from err

    if not parser.has_option("run", "b"):
        raise ConfigurationError("config must set run.b")
    if not parser.has_option("init", "family"):
        raise ConfigurationError("config must set init.family")

    grid = make_grid(
        get("grid", "n_points", _DEFAULTS["n_points"], convert=int),
        get("grid", "box_length", _DEFAULTS["box_length"]),
        get("grid", "dealias_fraction", DEFAULT_DEALIAS_FRACTION),
    )
    b = get("run", "b")
    evolve_cfg = evolve.EvolveConfig(
        b=b,
        t_final=get("run", "t_final", _DEFAULTS["t_final"]),
        dt_max=get("run", "dt_max", _DEFAULTS["dt_max"]),
        sample_interval=get("run", "sample_interval", _DEFAULTS["sample_interval"]),
        cfl_safety=get("run", "cfl_safety", 0.2),
        blowup_threshold=get("run", "blowup_threshold", 1e6),
        require_sign_certificate=get_bool("run", "require_sign_certificate", False),
    )
    init = InitSpec(
        family=get("init", "family", convert=str),
        amplitude=get("init", "amplitude", 1.0),
        width=get("init", "width", 1.0),
        center=get("init", "center", None),
        mode=get("init", "mode", 1, convert=int),
    )

    def parse_sigmas(raw: str) -> tuple:
        items = [piece.strip() for piece in raw.split(",")]
        return tuple(float(piece) for piece in items if piece)

    diagnostics = DiagnosticsSpec(
        sigma_list=get("diagnostics", "sigma_list", (), convert=parse_sigmas),
        s=get("diagnostics", "s", 2.0),
        fit_k_min=get("diagnostics", "fit_k_min", analyticity.DEFAULT_FIT_K_MIN, convert=int),
        gamma_override=get("diagnostics", "gamma", None),
        m_trunc=get("diagnostics", "m_trunc", analyticity.DEFAULT_M_TRUNC, convert=int),
    )
    output_dir = get("output", "dir", _DEFAULTS["output_dir"], convert=str)
    return RunConfig(
        grid=grid, b=b, evolve=evolve_cfg, init=init,
        diagnostics=diagnostics, output_dir=output_dir,
    )


def render_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig back to config-file text; parse_config inverts this."""
    parser = configparser.ConfigParser()
    parser["grid"] = {
        "n_points": str(cfg.grid.n_points),
        "box_length": f"{cfg.grid.box_length:.17g}",
        "dealias_fraction": f"{cfg.grid.dealias_fraction:.17g}",
    }
    parser["run"] = {
        "b": f"{cfg.b:.17g}",
        "t_final": f"{cfg.evolve.t_final:.17g}",
        "dt_max": f"{cfg.evolve.dt_max:.17g}",
        "sample_interval": f"{cfg.evolve.sample_interval:.17g}",
        "cfl_safety": f"{cfg.evolve.cfl_safety:.17g}",
        "blowup_threshold": f"{cfg.evolve.blowup_threshold:.17g}",
        "require_sign_certificate": str(cfg.evolve.require_sign_certificate).lower(),
    }
    init = {
        "family": cfg.init.family,
        "amplitude": f"{cfg.init.amplitude:.17g}",
        "width": f"{cfg.init.width:.17g}",
        "mode": str(cfg.init.mode),
    }
    if cfg.init.center is not None:
        init["center"] = f"{cfg.init.center:.17g}"
    parser["init"] = init
    diagnostics = {
        "sigma_list": ", ".join(f"{s:.17g}" for s in cfg.diagnostics.sigma_list),
        "s": f"{cfg.diagnostics.s:.17g}",
        "fit_k_min": str(cfg.diagnostics.fit_k_min),
        "m_trunc": str(cfg.diagnostics.m_trunc),
    }
    if cfg.diagnostics.gamma_override is not None:
        diagnostics["gamma"] = f"{cfg.diagnostics.gamma_override:.17g}"
    parser["diagnostics"] = diagnostics
    parser["output"] = {"dir": cfg.output_dir}
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# snapshot persistence (binary, little-endian)


def snapshot_of(u: RealField, t: float, b: float) -> Snapshot:
    return Snapshot(
        n_points=u.grid.n_points,
        box_length=u.grid.box_length,
        t=t,
        b=b,
        samples=u.samples.copy(),
    )


def field_of(snap: Snapshot) -> RealField:
    return RealField(make_grid(snap.n_points, snap.box_length), snap.samples)


def write_snapshot(path, snap: Snapshot) -> None:
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        snap.version,
        snap.n_points,
        snap.box_length,
        snap.t,
        snap.b,
    )
    payload = np.ascontiguousarray(snap.samples, dtype="<f8").tobytes()
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(payload)


def read_snapshot(path) -> Snapshot:
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: file shorter than the snapshot header")
    magic, version, n_points, box_length, t, b = _HEADER.unpack(raw[: _HEADER.size])
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}, expected {SNAPSHOT_MAGIC!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version {version}, expected {SNAPSHOT_VERSION}"
        )
    try:
        make_grid(n_points, box_length)
    except ConfigurationError as err:
        raise SnapshotError(f"{path}: header describes no grid: {err}") from err
    payload = raw[_HEADER.size :]
    if len(payload) != 8 * n_points:
        raise SnapshotError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * n_points}"
        )
    samples = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(samples)):
        raise SnapshotError(f"{path}: payload holds non-finite samples")
    return Snapshot(
        n_points=n_points, box_length=box_length, t=t, b=b,
        samples=samples, version=version,
    )


# ---------------------------------------------------------------------------
# diagnostics emission


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def emit_diagnostics(rows, path) -> None:
    """CSV in DIAGNOSTIC_COLUMNS order at 17 significant digits, plus two
    plot-ready companions <stem>_sigma_hat.dat and <stem>_km_bound.dat."""
    path = Path(path)
    lines = [",".join(DIAGNOSTIC_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row.values()))
    path.write_text("\n".join(lines) + "\n")

    for suffix, column in (("sigma_hat", "sigma_hat"), ("km_bound", "km_sigma_bound")):
        companion = path.with_name(f"{path.stem}_{suffix}.dat")
        body = "\n".join(
            f"{_fmt(row.t)} {_fmt(getattr(row, column))}" for row in rows
        )
        companion.write_text(body + "\n" if body else "")


def parse_diagnostics(text: str):
    """Inverse of emit_diagnostics for the CSV part."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != ",".join(DIAGNOSTIC_COLUMNS):
        raise ConfigurationError("diagnostics CSV header mismatch")
    return [DiagnosticsRow(*(float(v) for v in line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class ScenarioResult:
    config: RunConfig
    trajectory: evolve.Trajectory
    rows: list
    bound: analyticity.KMBound
    fits: list


STANDARD_MONITORS = {
    "l2": lambda u: norms.sobolev_norm(u, 0.0),
    "h1": lambda u: norms.sobolev_norm(u, 1.0),
    "h2": lambda u: norms.sobolev_norm(u, 2.0),
    "mean_u": dynamics.conserved_mean,
    "m_l1": dynamics.momentum_l1,
    "m_min": dynamics.momentum_min,
}


def _fit_or_nan(u: RealField, k_min: int):
    try:
        return analyticity.fit_decay_radius(dft(u), k_min=k_min)
    except InsufficientBandError:
        return None


def compute_diagnostics(trajectory, diag: DiagnosticsSpec):
    """Radius fits per snapshot, the strip bound, and the assembled rows."""
    fits = [_fit_or_nan(u, diag.fit_k_min) for _, u in trajectory.snapshots]
    if diag.gamma_override is not None:
        gamma = diag.gamma_override
    elif fits[0] is not None:
        gamma = analyticity.default_gamma(fits[0].sigma_hat)
    else:
        gamma = -0.05
    bound = analyticity.km_bound_from_run(trajectory, gamma, diag.m_trunc)
    rows = []
    for record, fit in zip(trajectory.diagnostics, fits):
        rows.append(
            DiagnosticsRow(
                t=record["t"],
                l2=record["l2"],
                h1=record["h1"],
                h2=record["h2"],
                mean_u=record["mean_u"],
                m_l1=record["m_l1"],
                m_min=record["m_min"],
                sigma_hat=fit.sigma_hat if fit else math.nan,
                fit_quality=fit.fit_quality if fit else math.nan,
                km_sigma_bound=analyticity.km_bound_sigma(record["t"], bound),
                dt_used=record["dt_used"],
            )
        )
    return rows, bound, fits


def run_scenario(cfg: RunConfig, config_text: Optional[str] = None) -> ScenarioResult:
    """Full pipeline: init -> evolve -> per-sample diagnostics -> strip bound,
    persisting everything into cfg.output_dir."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(config_text or render_config(cfg))
    started = time.time()
    status = 0
    try:
        u0 = build_initial(cfg)
        trajectory = evolve.run(u0, cfg.evolve, monitors=STANDARD_MONITORS)
        rows, bound, fits = compute_diagnostics(trajectory, cfg.diagnostics)
        emit_diagnostics(rows, out / "diagnostics.csv")
        write_snapshot(out / "initial.bgev", snapshot_of(u0, 0.0, cfg.b))
        t_end, u_end = trajectory.snapshots[-1]
        write_snapshot(out / "final.bgev", snapshot_of(u_end, t_end, cfg.b))
        return ScenarioResult(cfg, trajectory, rows, bound, fits)
    except BaseException as err:
        status = exit_code_for(err)
        raise
    finally:
        manifest = {
            "started_unix": started,
            "finished_unix": time.time(),
            "exit_status": status,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def exit_code_for(err: BaseException) -> int:
    """Map an exception to the CLI exit-code contract."""
    if isinstance(err, ConfigurationError):
        return 1
    if isinstance(err, BlowupError):
        return 2
    if isinstance(err, (SnapshotError, OSError)):
        return 3
    return 1
