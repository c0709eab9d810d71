"""Run configuration, initial data, persistence, and the full pipeline.

A run is described by an INI-style config file with sections
[grid], [run], [init], [diagnostics], [output]; the exact grammar and the
default for every key are documented in the README. The parsed RunConfig is
the one source of what a run uses: `simulate` runs the pipeline in memory and
`run_scenario` persists it, into a run directory of five files:
render_config(cfg) as config.ini, diagnostics.csv, the initial and final field
snapshots, and a JSON manifest. Every diagnostics column is read from the
sampled states after the march, one half spectrum and one momentum field per
sample (`compute_diagnostics`).
"""

from __future__ import annotations

import configparser
import io
import json
import math
import platform
import struct
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

import numpy as np

from . import __version__, analyticity, dynamics, evolve, norms
from .errors import (
    ConfigurationError,
    InsufficientBandError,
    SnapshotError,
    exit_code,
    require_finite,
    require_integer,
)
from .grid import GridSpec, RealField, make_grid

INIT_FAMILIES = ("gaussian", "sech", "sine", "momentum_bump")

SNAPSHOT_MAGIC = b"BGEV"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIQddd")  # magic, version, N, L, t, b


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
        for name in ("amplitude", "width", "center"):
            require_finite(name, getattr(self, name))
        if self.amplitude <= 0 or self.width <= 0:
            raise ConfigurationError("amplitude and width must be positive")
        require_integer("mode", self.mode, 1)


@dataclass(frozen=True)
class DiagnosticsSpec:
    sigma_list: tuple = ()
    s: float = 2.0
    fit_k_min: int = analyticity.DEFAULT_FIT_K_MIN
    gamma_override: Optional[float] = None
    m_trunc: int = analyticity.DEFAULT_M_TRUNC

    def __post_init__(self):
        require_finite("s", self.s)
        require_finite("sigma_list", *self.sigma_list)
        require_finite("gamma", self.gamma_override)
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
        require_integer("fit_k_min", self.fit_k_min, 1)
        require_integer("m_trunc", self.m_trunc, 0)


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    evolve: evolve.EvolveConfig
    init: InitSpec
    diagnostics: DiagnosticsSpec
    output_dir: str


@dataclass(frozen=True)
class DiagnosticsRow:
    """One sampling instant; the field order is the CSV column order."""

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


DIAGNOSTIC_COLUMNS = tuple(column.name for column in fields(DiagnosticsRow))


@dataclass(frozen=True)
class Snapshot:
    n_points: int
    box_length: float
    t: float
    b: float
    samples: np.ndarray


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

    gaussian:       a * exp(-(x-c)^2 / w^2), periodized, c taken modulo L
    sech:           a * sech((x-c)/w), periodized, c taken modulo L
    sine:           a * sin(2 pi q x / L), q an integer >= 1
    momentum_bump:  u with momentum m = u - u_xx a non-negative periodized
                    gaussian bump (sign certificate holds by construction)
    """
    try:
        spec = InitSpec(family=family, **params)
    except TypeError as err:
        raise ConfigurationError(f"bad parameters for family {family!r}: {err}") from err
    return _initial_field(spec, grid)


def build_initial(cfg: RunConfig) -> RealField:
    return _initial_field(cfg.init, cfg.grid)


def _initial_field(spec: InitSpec, grid: GridSpec) -> RealField:
    x = grid.x
    length = grid.box_length
    # _periodized adds the +-1 box images only, which cover a center in [0, L)
    center = spec.center % length if spec.center is not None else 0.5 * length
    a, w = spec.amplitude, spec.width
    if spec.family == "gaussian":
        samples = _periodized(lambda y: a * np.exp(-(y / w) ** 2), x, center, length)
        return RealField(grid, samples)
    if spec.family == "sech":
        samples = _periodized(lambda y: a / np.cosh(y / w), x, center, length)
        return RealField(grid, samples)
    if spec.family == "sine":
        if spec.mode >= grid.band_size:
            # the march freezes a mode above the band, and its aliased square drives the band
            raise ConfigurationError(
                f"sine mode {spec.mode} lies outside the dealiased band k = 0 .. "
                f"{grid.band_size - 1} of N = {grid.n_points}"
            )
        # phase built from node indices: x_j = j L / N makes L cancel exactly
        phase = (2.0 * np.pi * spec.mode / grid.n_points) * np.arange(grid.n_points)
        return RealField(grid, a * np.sin(phase))
    bump = _periodized(lambda y: a * np.exp(-(y / w) ** 2), x, center, length)
    return dynamics.inverse_momentum(RealField(grid, bump))


# ---------------------------------------------------------------------------
# config file grammar

_REQUIRED = object()  # default of the keys a config must set


class ConfigKey(NamedTuple):
    """One config key and the RunConfig field it sets ("" part: RunConfig itself).

    `default` applies only where the field's dataclass has none; None leaves
    the dataclass default in force. A key of part None sets no field: it is
    parsed and checked, then dropped.
    """

    section: str
    key: str
    part: str
    field: str
    kind: type
    default: object = None


# one row per key, in the order render_config writes them
CONFIG_SCHEMA = (
    ConfigKey("grid", "n_points", "grid", "n_points", int, 512),
    ConfigKey("grid", "box_length", "grid", "box_length", float, 2.0 * math.pi),
    ConfigKey("grid", "dealias_fraction", "grid", "dealias_fraction", float),
    ConfigKey("run", "b", "evolve", "b", float, _REQUIRED),
    ConfigKey("run", "t_final", "evolve", "t_final", float, 1.0),
    ConfigKey("run", "dt_max", None, "dt_max", float),
    ConfigKey("run", "sample_interval", "evolve", "sample_interval", float, 0.1),
    ConfigKey("run", "blowup_threshold", "evolve", "blowup_threshold", float),
    ConfigKey("run", "require_sign_certificate", "evolve", "require_sign_certificate", bool),
    ConfigKey("init", "family", "init", "family", str, _REQUIRED),
    ConfigKey("init", "amplitude", "init", "amplitude", float),
    ConfigKey("init", "width", "init", "width", float),
    ConfigKey("init", "mode", "init", "mode", int),
    ConfigKey("init", "center", "init", "center", float),
    ConfigKey("diagnostics", "sigma_list", "diagnostics", "sigma_list", tuple),
    ConfigKey("diagnostics", "s", "diagnostics", "s", float),
    ConfigKey("diagnostics", "fit_k_min", "diagnostics", "fit_k_min", int),
    ConfigKey("diagnostics", "m_trunc", "diagnostics", "m_trunc", int),
    ConfigKey("diagnostics", "gamma", "diagnostics", "gamma_override", float),
    ConfigKey("output", "dir", "", "output_dir", str, "bfamlab_run"),
)


def _parse(parser: configparser.ConfigParser, row: ConfigKey):
    """The value of a key the config sets, as the row's type."""
    if row.kind is bool:
        return parser.getboolean(row.section, row.key)
    raw = parser.get(row.section, row.key)
    if row.kind is tuple:
        return tuple(float(piece) for piece in map(str.strip, raw.split(",")) if piece)
    return row.kind(raw)


def _render(kind: type, value) -> str:
    """The config text of a value; _parse inverts it."""
    if kind is float:
        return _fmt(value)
    if kind is tuple:
        return ", ".join(map(_fmt, value))
    return str(value).lower() if kind is bool else str(value)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file; unknown or duplicate keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigurationError(f"config syntax error: {err}") from err

    for section in parser.sections():
        keys = [row.key for row in CONFIG_SCHEMA if row.section == section]
        if not keys:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in keys:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")

    values = {part: {} for part in (None, "", "grid", "evolve", "init", "diagnostics")}
    for row in CONFIG_SCHEMA:
        if parser.has_option(row.section, row.key):
            try:
                value = _parse(parser, row)
            except ValueError as err:
                raw = parser.get(row.section, row.key)
                raise ConfigurationError(
                    f"cannot parse {row.section}.{row.key} = {raw!r}: {err}"
                ) from err
        elif row.default is _REQUIRED:
            raise ConfigurationError(f"config must set {row.section}.{row.key}")
        elif row.default is None:
            continue
        else:
            value = row.default
        values[row.part][row.field] = value
    dt_max = values[None].get("dt_max")
    require_finite("dt_max", dt_max)
    if dt_max is not None and dt_max <= 0:
        raise ConfigurationError(f"dt_max must be positive, got {dt_max}")
    return RunConfig(
        grid=GridSpec(**values["grid"]),
        evolve=evolve.EvolveConfig(**values["evolve"]),
        init=InitSpec(**values["init"]),
        diagnostics=DiagnosticsSpec(**values["diagnostics"]),
        **values[""],
    )


def render_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig back to config-file text; parse_config inverts this."""
    parser = configparser.ConfigParser()
    for row in (row for row in CONFIG_SCHEMA if row.part is not None):
        value = getattr(getattr(cfg, row.part) if row.part else cfg, row.field)
        if value is not None:
            parser.read_dict({row.section: {row.key: _render(row.kind, value)}})
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


def _snapshot_samples(path, n_points, box_length, t, b, payload: bytes) -> np.ndarray:
    """The samples of a snapshot's header fields and payload bytes, as a read-only
    little-endian view; SnapshotError unless they describe a field: a grid, a
    finite t and b, and n_points finite samples. write_snapshot and read_snapshot
    both check a snapshot here."""
    try:
        make_grid(n_points, box_length)
    except ConfigurationError as err:
        raise SnapshotError(f"{path}: header describes no grid: {err}") from err
    if not (math.isfinite(t) and math.isfinite(b)):
        raise SnapshotError(f"{path}: header holds a non-finite t = {t} or b = {b}")
    if len(payload) != 8 * n_points:
        raise SnapshotError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * n_points}"
        )
    samples = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(samples)):
        raise SnapshotError(f"{path}: payload holds non-finite samples")
    return samples


def write_snapshot(path, snap: Snapshot) -> None:
    """The snapshot in the binary format, always at SNAPSHOT_VERSION. A snapshot
    that read_snapshot would reject raises SnapshotError, and no file is written."""
    payload = np.ascontiguousarray(snap.samples, dtype="<f8").tobytes()
    _snapshot_samples(path, snap.n_points, snap.box_length, snap.t, snap.b, payload)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        snap.n_points,
        snap.box_length,
        snap.t,
        snap.b,
    )
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
    samples = _snapshot_samples(path, n_points, box_length, t, b, raw[_HEADER.size :])
    return Snapshot(n_points=n_points, box_length=box_length, t=t, b=b,
                    samples=samples.astype(np.float64))


# ---------------------------------------------------------------------------
# diagnostics emission


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def emit_diagnostics(rows, path) -> None:
    """The diagnostics CSV: a header of DIAGNOSTIC_COLUMNS, then one line per
    row, every value at 17 significant digits so that it parses back exactly."""
    lines = [",".join(DIAGNOSTIC_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row.values()))
    Path(path).write_text("\n".join(lines) + "\n")


def parse_diagnostics(text: str):
    """The rows of a diagnostics CSV, the inverse of emit_diagnostics. Blank
    lines are skipped; a wrong header, a row whose field count is not the
    header's, or a field that is not a float is a ConfigurationError."""
    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if not lines or lines[0][1] != ",".join(DIAGNOSTIC_COLUMNS):
        raise ConfigurationError("diagnostics CSV header mismatch")
    rows = []
    for number, line in lines[1:]:
        values = line.split(",")
        try:
            if len(values) != len(DIAGNOSTIC_COLUMNS):
                raise ValueError(f"{len(values)} fields, expected {len(DIAGNOSTIC_COLUMNS)}")
            rows.append(DiagnosticsRow(*map(float, values)))
        except ValueError as err:
            raise ConfigurationError(f"diagnostics CSV line {number}: {err}") from err
    return rows


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class ScenarioResult:
    trajectory: evolve.Trajectory
    rows: list
    bound: analyticity.KMBound


def _sample_columns(u: RealField, k_min: int) -> dict:
    """The columns of one sample that its state alone fixes; the fit columns
    are NaN with too few usable modes.

    One half spectrum gives l2, h1, h2 and the fit, and one momentum field
    gives m_l1 and m_min: 3 real transforms per sample. The functions are
    looked up in their modules per call, so a patched one is used.
    """
    spectrum = norms._spectrum(u)
    m = dynamics.momentum(u)
    try:
        fit = analyticity.fit_decay_radius(spectrum, k_min=k_min)
    except InsufficientBandError:
        fit = None
    l2, h1, h2 = norms._sobolev_norms(spectrum, (0.0, 1.0, 2.0))
    columns = dict(
        l2=l2, h1=h1, h2=h2,
        mean_u=dynamics.conserved_mean(u),
        m_l1=dynamics.momentum_l1(u, m),
        m_min=dynamics.momentum_min(u, m),
        sigma_hat=fit.sigma_hat if fit else math.nan,
        fit_quality=fit.fit_quality if fit else math.nan,
    )
    return columns


def compute_diagnostics(trajectory, diag: DiagnosticsSpec):
    """The rows of every snapshot and the strip bound, as (rows, bound); mu
    comes from the samples' h2 column."""
    readings = [_sample_columns(u, diag.fit_k_min) for _, u in trajectory.snapshots]
    if diag.gamma_override is not None:
        gamma = diag.gamma_override
    else:
        gamma = analyticity.default_gamma(readings[0]["sigma_hat"])
    h2_norms = [columns["h2"] for columns in readings]
    bound = analyticity.km_bound_from_run(trajectory, gamma, diag.m_trunc, h2_norms)
    rows = [
        DiagnosticsRow(
            t=t, **columns, km_sigma_bound=analyticity.km_bound_sigma(t, bound), dt_used=dt,
        )
        for (t, _), dt, columns in zip(trajectory.snapshots, trajectory.dt_used, readings)
    ]
    return rows, bound


def simulate(cfg: RunConfig) -> ScenarioResult:
    """The pipeline in memory: init -> evolve -> per-sample diagnostics -> strip bound."""
    trajectory = evolve.run(build_initial(cfg), cfg.evolve)
    return ScenarioResult(trajectory, *compute_diagnostics(trajectory, cfg.diagnostics))


def run_scenario(cfg: RunConfig) -> ScenarioResult:
    """simulate(cfg), persisting everything into cfg.output_dir; config.ini is
    render_config(cfg), so it names every value the run used."""
    import hashlib  # here, so that importing the package does not load it
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = render_config(cfg).encode()
    (out / "config.ini").write_bytes(config)
    config_sha256 = hashlib.sha256(config).hexdigest()
    started = time.time()
    status, trajectory = 0, None
    try:
        result = simulate(cfg)
        trajectory = result.trajectory
        emit_diagnostics(result.rows, out / "diagnostics.csv")
        snapshots = trajectory.snapshots
        for name, (t, u) in (("initial", snapshots[0]), ("final", snapshots[-1])):
            write_snapshot(out / f"{name}.bgev", snapshot_of(u, t, cfg.evolve.b))
        return result
    except BaseException as err:
        status = exit_code(err)
        trajectory = getattr(err, "trajectory", None) or trajectory
        raise
    finally:
        manifest = {
            "started_unix": started,
            "finished_unix": time.time(),
            "exit_status": status,
            "versions": {"bfamlab": __version__, "numpy": np.__version__,
                         "python": platform.python_version()},
            "config_sha256": config_sha256,
        }
        if trajectory is not None:
            spans = trajectory.spans
            manifest.update(steps=len(spans), dt_min=min(spans, default=None),
                            dt_max=max(spans, default=None))
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
