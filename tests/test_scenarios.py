"""Config grammar, initial-datum families, persistence, and the pipeline."""

import dataclasses
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from bfamlab import (
    BlowupError,
    ConfigurationError,
    InsufficientBandError,
    KMBound,
    RealField,
    SnapshotError,
    fit_decay_radius,
    initial_data,
    inverse_momentum,
    km_bound_sigma,
    make_grid,
    momentum,
    parse_config,
    read_snapshot,
    render_config,
    run_scenario,
    sobolev_norm,
    write_snapshot,
)
from bfamlab import scenarios
from bfamlab.scenarios import (
    DIAGNOSTIC_COLUMNS,
    SNAPSHOT_VERSION,
    Snapshot,
    emit_diagnostics,
    parse_diagnostics,
    snapshot_of,
)

MINIMAL = """
[run]
b = 2.0

[init]
family = sine
"""

SMALL_RUN = """
[grid]
n_points = 128
box_length = 20.0

[run]
b = 2.0
t_final = 0.2
dt_max = 0.02
sample_interval = 0.1

[init]
family = sech
amplitude = 0.25
width = 1.0

[output]
dir = {outdir}
"""


class TestInitialData:
    def test_sine_exact_at_nodes(self):
        grid = make_grid(64, 2 * np.pi)
        u = initial_data("sine", {"amplitude": 1.0, "mode": 1}, grid)
        assert np.array_equal(u.samples, np.sin(grid.x))

    def test_sine_mode_and_amplitude(self):
        grid = make_grid(64, 1.0)
        u = initial_data("sine", {"amplitude": 2.0, "mode": 3}, grid)
        assert np.allclose(u.samples, 2.0 * np.sin(6 * np.pi * grid.x))

    def test_momentum_bump_round_trip(self):
        grid = make_grid(512, 80.0)
        u = initial_data("momentum_bump", {"amplitude": 1.0, "width": 5.0}, grid)
        target = np.exp(-(((grid.x - 40.0) / 5.0) ** 2))
        target += np.exp(-(((grid.x - 120.0) / 5.0) ** 2))
        target += np.exp(-(((grid.x + 40.0) / 5.0) ** 2))
        m = momentum(u)
        assert np.max(np.abs(m.samples - target)) < 1e-12
        assert np.min(m.samples) >= -1e-12

    def test_gaussian_periodization_is_smooth_at_seam(self):
        grid = make_grid(512, 80.0)
        u = initial_data("gaussian", {"amplitude": 1.0, "width": 1.5}, grid)
        assert abs(u.samples[0] - u.samples[-1]) < 1e-14

    def test_narrow_sech_builds_without_a_warning(self):
        # cosh(y / w) overflows far from the center, where the image is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u = initial_data("sech", {"amplitude": 1.0, "width": 0.12}, make_grid(8192, 80.0))
        assert np.isfinite(u.samples).all()

    def test_sech_fitted_radius(self):
        from bfamlab import fit_decay_radius

        grid = make_grid(2048, 80.0)
        u = initial_data("sech", {"amplitude": 1.0, "width": 1.0}, grid)
        fit = fit_decay_radius(u)
        assert fit.sigma_hat == pytest.approx(np.pi / 2, rel=0.02)

    def test_default_box_sech_is_periodic_to_round_off(self):
        # on L = 2 pi a sech of width 1 is e^{-9.4} = 1.6e-4 high at the third
        # box image, which a sum over the +-1 images left out
        grid = make_grid(512, 2 * np.pi)
        u = initial_data("sech", {"amplitude": 1.0, "width": 1.0}, grid)
        images = np.arange(-60, 61)[:, None] * grid.box_length
        periodic = np.sum(1.0 / np.cosh(grid.x - np.pi + images), axis=0)
        assert np.max(np.abs(u.samples - periodic)) <= 1e-15 * np.max(np.abs(periodic))
        assert fit_decay_radius(u).sigma_hat == pytest.approx(np.pi / 2, rel=0.02)

    @pytest.mark.parametrize("family, length, width", [
        ("sech", 80.0, 1.0), ("sech", 80.0, 1.1), ("gaussian", 80.0, 8.0),
        ("momentum_bump", 80.0, 8.8), ("gaussian", 2 * np.pi, 1.0)])
    def test_one_image_per_side_where_the_profile_has_decayed(self, family, length, width):
        # the widths of the benchmark's and the acceptance suite's data: the
        # first omitted image is below round-off, so the +-1 images are the sum
        grid = make_grid(256, length)
        u = initial_data(family, {"amplitude": 0.5, "width": width}, grid)
        profile = (lambda y: 0.5 / np.cosh(y / width)) if family == "sech" else (
            lambda y: 0.5 * np.exp(-(y / width) ** 2))
        three = np.zeros(256)
        for shift in (-1.0, 0.0, 1.0):
            three += profile(grid.x - 0.5 * length + shift * length)
        if family == "momentum_bump":
            three = inverse_momentum(RealField(grid, three)).samples
        assert u.samples.tobytes() == three.tobytes()

    @pytest.mark.parametrize("family, width", [("sech", 20.0), ("gaussian", 100.0)])
    def test_width_beyond_the_image_cap_rejected(self, family, width):
        grid = make_grid(64, 2 * np.pi)
        with pytest.raises(ConfigurationError, match="more than 64 box images"):
            initial_data(family, {"width": width}, grid)

    @pytest.mark.parametrize("mode", [1.5, 2.0, True])
    def test_sine_mode_must_be_an_integer(self, mode):
        # sin(1.5 x) on L = 2 pi is not periodic: its extension has a kink at x = 0
        grid = make_grid(64, 2 * np.pi)
        with pytest.raises(ConfigurationError, match="mode must be an integer"):
            initial_data("sine", {"mode": mode}, grid)

    @pytest.mark.parametrize("mode", ["band", "nyquist", 40])
    def test_sine_mode_outside_the_band_rejected(self, mode):
        # the march freezes a mode above the band, and its aliased square then
        # drives the band; mode 40 on N = 64 aliases onto k = 24, above k = 21
        grid = make_grid(64, 2 * np.pi)
        mode = {"band": grid.band_size, "nyquist": grid.n_points // 2}.get(mode, mode)
        with pytest.raises(ConfigurationError, match=rf"sine mode {mode} .* 0 \.\. 21 of N = 64"):
            initial_data("sine", {"mode": mode}, grid)

    def test_sine_mode_at_the_band_edge_builds(self):
        grid = make_grid(64, 2 * np.pi)
        u = initial_data("sine", {"mode": grid.band_size - 1}, grid)
        assert np.allclose(u.samples, np.sin(21 * grid.x))

    @pytest.mark.parametrize("family", ["gaussian", "sech", "momentum_bump"])
    @pytest.mark.parametrize("shift", [3, -2])
    def test_center_is_taken_modulo_the_box(self, family, shift):
        # the periodized profiles count their box images from a center in [0, L)
        grid = make_grid(256, 80.0)
        params = {"amplitude": 1.0, "width": 1.0}
        inside = initial_data(family, {**params, "center": 40.0}, grid)
        outside = initial_data(family, {**params, "center": 40.0 + shift * 80.0}, grid)
        assert outside.samples.tobytes() == inside.samples.tobytes()

    def test_unknown_family(self):
        grid = make_grid(64, 2 * np.pi)
        with pytest.raises(ConfigurationError):
            initial_data("square", {"amplitude": 1.0}, grid)

    def test_nonpositive_amplitude(self):
        grid = make_grid(64, 2 * np.pi)
        with pytest.raises(ConfigurationError):
            initial_data("gaussian", {"amplitude": 0.0, "width": 1.0}, grid)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.n_points == 512
        assert cfg.grid.box_length == pytest.approx(2 * math.pi)
        assert cfg.evolve.b == 2.0
        assert cfg.evolve.blowup_threshold == 1e6
        assert cfg.diagnostics.s == 2.0
        assert cfg.init.family == "sine"

    def test_low_s_rejected_with_gevrey_diagnostics(self):
        text = MINIMAL + "\n[diagnostics]\nsigma_list = 0.5\ns = 1.0\n"
        with pytest.raises(ConfigurationError, match="s > 3/2"):
            parse_config(text)

    def test_low_s_allowed_without_gevrey_diagnostics(self):
        text = MINIMAL + "\n[diagnostics]\ns = 1.0\n"
        assert parse_config(text).diagnostics.s == 1.0

    @pytest.mark.parametrize("field, value", [
        ("fit_k_min", 2.5), ("fit_k_min", 4.0), ("fit_k_min", True), ("fit_k_min", 0),
        ("m_trunc", 2.5), ("m_trunc", 16.0), ("m_trunc", False), ("m_trunc", -1),
    ])
    def test_diagnostics_counts_must_be_integers(self, field, value):
        # a fractional m_trunc would otherwise fail in km_phi only after the march
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            scenarios.DiagnosticsSpec(**{field: value})

    def test_duplicate_key_rejected(self):
        text = "[run]\nb = 2.0\nb = 3.0\n\n[init]\nfamily = sine\n"
        with pytest.raises(ConfigurationError):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config(MINIMAL + "\n[grid]\nresolution = 64\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            parse_config(MINIMAL + "\n[solver]\nname = rk4\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigurationError):
            parse_config("[init]\nfamily = sine\n")
        with pytest.raises(ConfigurationError):
            parse_config("[run]\nb = 1.0\n")

    def test_unparsable_number(self):
        with pytest.raises(ConfigurationError):
            parse_config("[run]\nb = two\n\n[init]\nfamily = sine\n")

    def test_render_round_trip(self, tmp_path):
        text = SMALL_RUN.format(outdir=tmp_path / "out")
        cfg = parse_config(text)
        assert parse_config(render_config(cfg)) == cfg

    def test_gamma_override_must_be_negative(self):
        text = MINIMAL + "\n[diagnostics]\ngamma = 0.2\n"
        with pytest.raises(ConfigurationError):
            parse_config(text)


class TestDtMaxKey:
    """[run] dt_max bounds no step: it is parsed and checked as it was when
    the RK4 march read it, then dropped, so configs that set it still run."""

    @pytest.mark.parametrize("value", ["0.01", "1e-300", "5"])
    def test_accepted_and_dropped(self, value):
        cfg = parse_config(MINIMAL.replace("[run]", f"[run]\ndt_max = {value}"))
        assert cfg == parse_config(MINIMAL)
        assert "dt_max" not in render_config(cfg)
        assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("value, message", [
        ("nan", "dt_max must be finite, got nan"),
        ("inf", "dt_max must be finite, got inf"),
        ("0", "dt_max must be positive, got 0.0"),
        ("-1", "dt_max must be positive, got -1.0"),
        ("abc", "cannot parse run.dt_max = 'abc': could not convert string to float: 'abc'"),
    ])
    def test_rejected_as_before(self, value, message):
        with pytest.raises(ConfigurationError) as err:
            parse_config(MINIMAL.replace("[run]", f"[run]\ndt_max = {value}"))
        assert str(err.value) == message

    def test_cfl_safety_is_not_a_config_key(self):
        text = MINIMAL.replace("[run]", "[run]\ncfl_safety = 0.2")
        with pytest.raises(ConfigurationError, match=r"^unknown key 'cfl_safety' in section"):
            parse_config(text)


# a valid value for every key, different from its default, and the
# RunConfig field it sets (None: the key sets no field)
NON_DEFAULT = {
    ("grid", "n_points"): ("64", "grid.n_points"),
    ("grid", "box_length"): ("10.0", "grid.box_length"),
    ("grid", "dealias_fraction"): ("0.5", "grid.dealias_fraction"),
    ("run", "b"): ("-1.5", "evolve.b"),
    ("run", "t_final"): ("0.5", "evolve.t_final"),
    ("run", "dt_max"): ("0.01", None),
    ("run", "sample_interval"): ("0.05", "evolve.sample_interval"),
    ("run", "blowup_threshold"): ("1e3", "evolve.blowup_threshold"),
    ("run", "require_sign_certificate"): ("true", "evolve.require_sign_certificate"),
    ("init", "family"): ("gaussian", "init.family"),
    ("init", "amplitude"): ("0.1", "init.amplitude"),
    ("init", "width"): ("2.0", "init.width"),
    ("init", "mode"): ("3", "init.mode"),
    ("init", "center"): ("1.25", "init.center"),
    ("diagnostics", "sigma_list"): ("0.1, 0.25", "diagnostics.sigma_list"),
    ("diagnostics", "s"): ("2.5", "diagnostics.s"),
    ("diagnostics", "fit_k_min"): ("6", "diagnostics.fit_k_min"),
    ("diagnostics", "m_trunc"): ("16", "diagnostics.m_trunc"),
    ("diagnostics", "gamma"): ("-0.2", "diagnostics.gamma_override"),
    ("output", "dir"): ("elsewhere", "output_dir"),
}

# every key set, center and gamma included; the text render_config wrote
# before the config schema became one table, less its cfl_safety line (no
# key now) and, in GOLDEN_RENDER, its dt_max line (accepted and dropped)
GOLDEN_CONFIG = """
[grid]
n_points = 256
box_length = 80.0
dealias_fraction = 0.5

[run]
b = -1.5
t_final = 0.3
dt_max = 0.01
sample_interval = 0.1
blowup_threshold = 1e4
require_sign_certificate = true

[init]
family = gaussian
amplitude = 0.1
width = 1.5
center = 30.0
mode = 2

[diagnostics]
sigma_list =
s = 2.5
fit_k_min = 6
gamma = -0.2
m_trunc = 16

[output]
dir = golden_run
"""

GOLDEN_RENDER = (
    "[grid]\nn_points = 256\nbox_length = 80\ndealias_fraction = 0.5\n\n"
    "[run]\nb = -1.5\nt_final = 0.29999999999999999\n"
    "sample_interval = 0.10000000000000001\n"
    "blowup_threshold = 10000\nrequire_sign_certificate = true\n\n"
    "[init]\nfamily = gaussian\namplitude = 0.10000000000000001\nwidth = 1.5\n"
    "mode = 2\ncenter = 30\n\n"
    "[diagnostics]\nsigma_list = \ns = 2.5\nfit_k_min = 6\nm_trunc = 16\n"
    "gamma = -0.20000000000000001\n\n"
    "[output]\ndir = golden_run\n\n"
)


def _config_text(sections) -> str:
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in sections.items()
    )


def _flat_fields(cfg) -> dict:
    """RunConfig fields as {"part.field": value}, nested parts flattened."""
    flat = {}
    for name, value in dataclasses.asdict(cfg).items():
        if isinstance(value, dict):
            flat.update({f"{name}.{field}": item for field, item in value.items()})
        else:
            flat[name] = value
    return flat


def _readme_grammar_rows():
    """(section, key, default cell) of the README "Config file grammar" table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config file grammar", 1)[1].split("\n\n")[2]
    rows, section = [], None
    for line in table.splitlines()[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        section = cells[0].strip("`[]") or section
        rows.append((section, cells[1].strip("`"), cells[2]))
    return rows


class TestConfigSchema:
    def test_golden_render(self):
        assert render_config(parse_config(GOLDEN_CONFIG)) == GOLDEN_RENDER
        assert parse_config(GOLDEN_RENDER) == parse_config(GOLDEN_CONFIG)

    def test_schema_rows_match_the_field_map(self):
        assert [
            (row.section, row.key,
             None if row.part is None else f"{row.part}.{row.field}".lstrip("."))
            for row in scenarios.CONFIG_SCHEMA
        ] == [(section, key, field) for (section, key), (_, field) in NON_DEFAULT.items()]

    @pytest.mark.parametrize("section, key", list(NON_DEFAULT))
    def test_each_key_sets_exactly_its_field(self, section, key):
        value, field = NON_DEFAULT[section, key]
        sections = {"run": {"b": "2.0"}, "init": {"family": "sine"}}
        base = parse_config(_config_text(sections))
        sections.setdefault(section, {})[key] = value
        cfg = parse_config(_config_text(sections))
        before, after = _flat_fields(base), _flat_fields(cfg)
        changed = {name for name in before if before[name] != after[name]}
        assert changed == {field} - {None}
        assert parse_config(render_config(cfg)) == cfg

    def test_readme_table_matches_schema(self):
        rows = _readme_grammar_rows()
        assert [(section, key) for section, key, _ in rows] == [
            (row.section, row.key) for row in scenarios.CONFIG_SCHEMA
        ]
        defaults = _flat_fields(parse_config(MINIMAL))
        plain_number = re.compile(r"`([-+]?\d+(\.\d*)?([eE][-+]?\d+)?)`")
        checked = 0
        for (_, field), (section, key, cell) in zip(NON_DEFAULT.values(), rows):
            match = plain_number.fullmatch(cell)
            if match:
                assert defaults[field] == float(match.group(1)), (section, key)
                checked += 1
        assert checked == 10


class TestNonFiniteSpecs:
    @pytest.mark.parametrize("section, line", [
        ("init", "amplitude = nan"), ("init", "amplitude = inf"),
        ("init", "width = nan"), ("init", "width = inf"),
        ("init", "center = nan"), ("init", "center = -inf"),
        ("diagnostics", "s = nan"), ("diagnostics", "s = inf"),
        ("diagnostics", "gamma = nan"), ("diagnostics", "gamma = -inf"),
        ("diagnostics", "sigma_list = 0.1, nan"), ("diagnostics", "sigma_list = inf"),
    ])
    def test_non_finite_values_rejected(self, section, line):
        key, value = line.split(" = ")
        sections = {"run": {"b": "2.0"}, "init": {"family": "sech"}}
        sections.setdefault(section, {})[key] = value
        with pytest.raises(ConfigurationError, match=f"^{key} must be finite"):
            parse_config(_config_text(sections))


class TestSnapshotIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        grid = make_grid(128, 5.0)
        u = RealField(grid, rng.standard_normal(128))
        path = tmp_path / "field.bgev"
        write_snapshot(path, snapshot_of(u, t=1.25, b=2.5))
        snap = read_snapshot(path)
        assert np.array_equal(snap.samples, u.samples)
        assert snap.t == 1.25 and snap.b == 2.5
        assert snap.n_points == 128 and snap.box_length == 5.0

    def test_corrupted_magic(self, tmp_path, rng):
        grid = make_grid(64, 1.0)
        path = tmp_path / "field.bgev"
        write_snapshot(path, snapshot_of(RealField(grid, rng.standard_normal(64)), 0.0, 2.0))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(raw)
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, rng):
        grid = make_grid(64, 1.0)
        path = tmp_path / "field.bgev"
        write_snapshot(path, snapshot_of(RealField(grid, rng.standard_normal(64)), 0.0, 2.0))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(SnapshotError, match="payload"):
            read_snapshot(path)

    def test_header_carries_the_format_version(self, tmp_path):
        path = tmp_path / "field.bgev"
        write_snapshot(path, Snapshot(n_points=64, box_length=1.0, t=0.0, b=2.0,
                                      samples=np.zeros(64)))
        assert struct.unpack_from("<I", path.read_bytes(), 4) == (SNAPSHOT_VERSION,)
        assert read_snapshot(path).samples.tobytes() == np.zeros(64).tobytes()

    @pytest.mark.parametrize("change, message", [
        ({"samples": np.zeros(63)}, "payload holds 504 bytes, expected 512"),
        ({"samples": np.array([0.0] * 63 + [np.nan])}, "non-finite samples"),
        ({"samples": np.array([np.inf] + [0.0] * 63)}, "non-finite samples"),
        ({"n_points": 63, "samples": np.zeros(63)}, "header describes no grid"),
        ({"n_points": 6, "samples": np.zeros(6)}, "header describes no grid"),
        ({"box_length": 0.0}, "header describes no grid"),
        ({"box_length": np.nan}, "header describes no grid"),
        ({"t": np.nan}, "non-finite t"),
        ({"b": -np.inf}, "non-finite t"),
    ])
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, change, message):
        fields = dict(n_points=64, box_length=1.0, t=0.0, b=2.0, samples=np.zeros(64))
        path = tmp_path / "field.bgev"
        with pytest.raises(SnapshotError, match=message):
            write_snapshot(path, Snapshot(**{**fields, **change}))
        assert not path.exists()

    @pytest.mark.parametrize("t, b", [(np.nan, 2.0), (np.inf, 2.0), (0.0, np.nan), (0.0, -np.inf)])
    def test_non_finite_time_or_b(self, tmp_path, t, b):
        path = tmp_path / "field.bgev"
        header = struct.pack("<4sIQddd", b"BGEV", SNAPSHOT_VERSION, 64, 1.0, t, b)
        path.write_bytes(header + np.zeros(64).tobytes())
        with pytest.raises(SnapshotError, match="non-finite t"):
            read_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "field.bgev"
        write_snapshot(path, Snapshot(n_points=64, box_length=1.0, t=0.0, b=2.0,
                                      samples=np.zeros(64)))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        path.write_bytes(raw)
        with pytest.raises(SnapshotError, match="version 99"):
            read_snapshot(path)


def random_table(rng, n_rows):
    """A diagnostics table of n_rows samples of standard normal values."""
    return dict(zip(DIAGNOSTIC_COLUMNS, rng.standard_normal((n_rows, 11)).T.copy()))


class TestDiagnosticsCsv:
    def table(self, t=0.5):
        values = (t, 1.1, 2.2, 3.3, 0.1, 4.4, -1e-12, 1.5, 0.999, -0.7, 0.01)
        return {name: np.array([value]) for name, value in zip(DIAGNOSTIC_COLUMNS, values)}

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "diag.csv"
        emit_diagnostics({name: np.empty(0) for name in DIAGNOSTIC_COLUMNS}, path)
        assert path.read_text() == ",".join(DIAGNOSTIC_COLUMNS) + "\n"

    def test_one_row_two_lines(self, tmp_path):
        path = tmp_path / "diag.csv"
        emit_diagnostics(self.table(), path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_round_trip_bit_identical(self, tmp_path, rng):
        # the values a run writes where a fit fails and the bound saturates
        special = random_table(rng, 3)
        special["sigma_hat"][1] = special["fit_quality"][1] = math.nan
        special["km_sigma_bound"][1:] = -math.inf
        path = tmp_path / "diag.csv"
        for table in (random_table(rng, 5), random_table(rng, 0), special):
            emit_diagnostics(table, path)
            text = path.read_text()
            back = parse_diagnostics(text)
            assert list(back) == list(DIAGNOSTIC_COLUMNS)
            for name in DIAGNOSTIC_COLUMNS:
                assert back[name].dtype == np.float64
                assert back[name].tobytes() == table[name].tobytes(), name
            emit_diagnostics(back, path)
            assert path.read_text() == text

    @pytest.mark.parametrize("line, message", [
        ("0.5,1.1", "line 3: 2 fields, expected 11"),
        ("0.5" + ",1.1" * 11, "line 3: 12 fields, expected 11"),
        ("0.5" + ",1.1" * 9 + ",x", "line 3: could not convert string to float: 'x'"),
    ], ids=["short", "long", "not_a_float"])
    def test_malformed_row_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "diag.csv"
        emit_diagnostics(self.table(), path)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_diagnostics(path.read_text() + line + "\n")


class TestRemovedCompanions:
    """The README's one-liners rebuild the two .dat companions that runs used
    to write beside diagnostics.csv, byte for byte."""

    README = Path(__file__).resolve().parents[1] / "README.md"
    COLUMNS = {"diagnostics_sigma_hat.dat": "sigma_hat",
               "diagnostics_km_bound.dat": "km_sigma_bound"}

    def one_liners(self):
        found = {}
        for line in self.README.read_text().splitlines():
            for name in self.COLUMNS:
                if line.startswith(f"| `{name}` | `"):
                    found[name] = line.split("`")[3]
        assert found.keys() == self.COLUMNS.keys()
        return found

    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_one_liners_rebuild_the_companions(self, tmp_path, monkeypatch, rng, n_rows):
        table = random_table(rng, n_rows)
        # the values a run writes where a fit fails and the bound saturates
        table["sigma_hat"][-1], table["km_sigma_bound"][-1] = math.nan, -math.inf
        emit_diagnostics(table, tmp_path / "diagnostics.csv")
        monkeypatch.chdir(tmp_path)
        for name, code in self.one_liners().items():
            exec(code, {"np": np})
            column = zip(table["t"].tolist(), table[self.COLUMNS[name]].tolist())
            expected = "".join(f"{t:.17g} {value:.17g}\n" for t, value in column)
            assert (tmp_path / name).read_bytes() == expected.encode(), name


class TestSampleColumns:
    @pytest.fixture
    def states(self):
        # alternating sech states, a sine with too few usable modes for the
        # decay fit and a gaussian whose fit warns (super-exponential decay)
        grid = make_grid(256, 80.0)
        sech = [RealField(grid, 0.5 / np.cosh(grid.x - c)) for c in (30.0, 45.0)]
        sine = RealField(grid, 0.5 * np.sin(2.0 * np.pi * grid.x / grid.box_length))
        gaussian = RealField(grid, np.exp(-(((grid.x - 40.0) / 3.0) ** 2)))
        return sech + [sine, gaussian] + sech[::-1]

    @pytest.mark.filterwarnings("ignore:spectral decay steepens with:UserWarning")
    def test_one_spectrum_and_one_momentum_per_sample(self, states, fft_counts):
        scenarios._sample_columns(states, 4)
        # one stacked rfft gives every spectrum, for l2, h1, h2 and the fit, and
        # one stacked irfft every momentum field, for m_l1 and m_min
        assert fft_counts == {"real": 2 * len(states), "complex": 0, "calls": 2, "combine": 0}

    def test_values_equal_the_direct_calls(self, states):
        with warnings.catch_warnings(record=True) as batch_warnings:
            warnings.simplefilter("always")
            columns = scenarios._sample_columns(states, 4)
        assert all(column.shape == (len(states),) and column.dtype == np.float64
                   for column in columns.values())
        fitted, warned = [], []
        for row, u in enumerate(states):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    fit = fit_decay_radius(u)
                except InsufficientBandError:
                    fit = None
            fitted.append(fit is not None)
            warned.append([str(w.message) for w in caught])
            reading = {name: column[row] for name, column in columns.items()}
            if fit is None:
                assert math.isnan(reading.pop("sigma_hat"))
                assert math.isnan(reading.pop("fit_quality"))
            else:
                assert (reading.pop("sigma_hat"), reading.pop("fit_quality")) == (
                    fit.sigma_hat, fit.fit_quality)
            assert {name: reading[name] for name in ("l2", "h1", "h2")} == {
                "l2": sobolev_norm(u, 0.0),
                "h1": sobolev_norm(u, 1.0),
                "h2": sobolev_norm(u, 2.0),
            }
        assert fitted == [True, True, False, True, True, True]
        # the gaussian's row alone warns, once, with its direct fit's message
        assert [len(messages) for messages in warned] == [0, 0, 0, 1, 0, 0]
        assert [str(w.message) for w in batch_warnings] == warned[3]

    def test_one_state_is_its_row_of_the_batch(self, states):
        # a state read alone, as a one-row batch, has every column's bits of
        # its row in the six-row batch: the columns have no second implementation
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = scenarios._sample_columns(states, 4)
            alone = [scenarios._sample_columns([u], 4) for u in states]
        assert set(batch) == {"l2", "h1", "h2", "mean_u", "m_l1", "m_min",
                              "sigma_hat", "fit_quality"}
        for row, columns in enumerate(alone):
            for name, column in batch.items():
                assert columns[name].shape == (1,)
                assert columns[name].tobytes() == column[row:row + 1].tobytes(), (row, name)


class TestRunScenario:
    def test_artifacts_and_determinism(self, tmp_path):
        out = tmp_path / "runA"
        text = SMALL_RUN.format(outdir=out)
        cfg = parse_config(text)
        result = run_scenario(cfg)

        for name in (
            "config.ini",
            "diagnostics.csv",
            "initial.bgev",
            "final.bgev",
            "manifest.json",
        ):
            assert (out / name).exists(), name

        assert list(result.table) == list(DIAGNOSTIC_COLUMNS)
        ts = result.table["t"].tolist()
        assert ts == sorted(ts)
        assert all(np.isfinite(column).all() for column in result.table.values())

        # reproducibility from the persisted copy, modulo the output dir
        persisted = (out / "config.ini").read_text()
        cfg2 = parse_config(persisted)
        out2 = tmp_path / "runB"
        cfg2 = dataclasses.replace(cfg2, output_dir=str(out2))
        run_scenario(cfg2)
        a = (out / "diagnostics.csv").read_text()
        b = (out2 / "diagnostics.csv").read_text()
        assert a == b

    def test_manifest_reports_success(self, tmp_path):
        import json

        out = tmp_path / "run"
        traj = run_scenario(parse_config(SMALL_RUN.format(outdir=out))).trajectory
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 0
        assert manifest["finished_unix"] >= manifest["started_unix"]
        assert (manifest["steps"], manifest["dt_min"], manifest["dt_max"]) == (
            len(traj.spans), min(traj.spans), max(traj.spans))
        assert 0.0 < min(traj.spans) <= max(traj.spans) <= 0.2
        self.assert_provenance(manifest, out)

    # the momentum bump's spectrum decays faster than exponentially
    @pytest.mark.filterwarnings("ignore:spectral decay steepens with:UserWarning")
    def test_manifest_bound_rebuilds_the_bound_column(self, tmp_path):
        import json

        out = tmp_path / "run"
        text = f"""
[grid]
n_points = 512
box_length = 80.0

[run]
b = -1.0
t_final = 2.0
sample_interval = 0.5

[init]
family = momentum_bump
amplitude = 0.5
width = 8.0

[output]
dir = {out}
"""
        result = run_scenario(parse_config(text))
        manifest = json.loads((out / "manifest.json").read_text())
        # m_trunc stays in config.ini alone
        assert list(manifest["bound"]) == ["b", "mu", "K_rate", "gamma", "lam", "phi0"]
        bound = KMBound(**manifest["bound"])
        assert bound == result.bound
        table = parse_diagnostics((out / "diagnostics.csv").read_text())
        column = table["km_sigma_bound"]
        # the column runs from gamma at t = 0 to the -inf of an overflow
        assert column[0] == bound.gamma and column[-1] == -math.inf
        assert km_bound_sigma(table["t"], bound).tobytes() == column.tobytes()

    def test_manifest_records_the_default_stepper(self, tmp_path):
        import json

        out = tmp_path / "run"
        result = run_scenario(parse_config(SMALL_RUN.format(outdir=out)))
        manifest = json.loads((out / "manifest.json").read_text())
        # the series is the one march, so the manifest names none
        assert "stepper" not in manifest
        assert manifest["steps"] == len(result.trajectory.spans)
        # the datum's first series proposes h of about 0.39, past t_final =
        # 0.2, so one series gives both samples, where RK4 takes 10 steps
        assert manifest["steps"] == 1
        assert "stepper" not in (out / "config.ini").read_text()

    def test_stepper_is_not_a_config_key(self):
        with pytest.raises(ConfigurationError, match="unknown key 'stepper'"):
            parse_config(MINIMAL.replace("[run]", "[run]\nstepper = rk4"))

    def test_manifest_reports_blowup(self, tmp_path):
        import json

        out = tmp_path / "run"
        text = SMALL_RUN.format(outdir=out).replace(
            "sample_interval = 0.1", "sample_interval = 0.1\nblowup_threshold = 0.01")
        with pytest.raises(BlowupError):
            run_scenario(parse_config(text))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert (manifest["steps"], manifest["dt_min"], manifest["dt_max"]) == (0, None, None)
        self.assert_provenance(manifest, out)

    def test_manifest_reports_a_blowup_after_completed_steps(self, tmp_path):
        # the b = 3 bump passes sup|u| = 1.2 after several series steps: the
        # manifest reads the steps that completed, not the one that failed
        import json

        out = tmp_path / "run"
        text = f"""
[grid]
n_points = 1024
box_length = 80.0

[run]
b = 3.0
t_final = 5.0
sample_interval = 0.5
blowup_threshold = 1.2

[init]
family = momentum_bump
amplitude = 1.0
width = 5.0

[output]
dir = {out}
"""
        with pytest.raises(BlowupError, match="exceeded blow-up threshold") as excinfo:
            run_scenario(parse_config(text))
        spans = excinfo.value.trajectory.spans
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["steps"] == len(spans) > 0
        assert (manifest["dt_min"], manifest["dt_max"]) == (min(spans), max(spans))
        self.assert_provenance(manifest, out)

    @staticmethod
    def assert_provenance(manifest, out):
        import hashlib
        import platform

        import bfamlab

        assert manifest["versions"] == {
            "bfamlab": bfamlab.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        digest = hashlib.sha256((out / "config.ini").read_bytes()).hexdigest()
        assert manifest["config_sha256"] == digest

    def test_mu_reads_the_h2_column(self, tmp_path, monkeypatch):
        from bfamlab import analyticity, evolve, norms

        text = SMALL_RUN.format(outdir=tmp_path).replace("t_final = 0.2", "t_final = 0.5").replace(
            "sample_interval = 0.1", "sample_interval = 0.05")
        h2_norms = []
        sobolev_norms = norms._sobolev_norms

        def counted(u, orders):
            if 2.0 in orders:
                h2_norms.append(u)
            return sobolev_norms(u, orders)

        # every H^2 norm goes through it, the sample columns' and sobolev_norm's;
        # the bound takes none of its own
        monkeypatch.setattr(norms, "_sobolev_norms", counted)
        result = scenarios.simulate(parse_config(text))
        assert len(result.table["h2"]) == 11
        assert len(h2_norms) == 11
        assert result.bound.mu == 1.0 + max(result.table["h2"].tolist())
        # the H^2 norms of the snapshots, taken one at a time, give the same mu, bit for bit
        bare = evolve.Trajectory(b=result.trajectory.b, snapshots=result.trajectory.snapshots)
        h2 = [sobolev_norm(u, 2.0) for _, u in bare.snapshots]
        assert analyticity.km_bound_from_run(bare, result.bound.gamma, h2).mu == result.bound.mu

    def test_transform_budget(self, tmp_path, fft_counts):
        from bfamlab import evolve

        cfg = parse_config(SMALL_RUN.format(outdir=tmp_path))
        trajectory = evolve.run(scenarios.build_initial(cfg), cfg.evolve)
        steps, samples = len(trajectory.spans), len(trajectory.snapshots)
        assert samples == 3 and steps == 1
        # the march: per step, the load of the state it starts from (2
        # transforms in 2 calls) and 16 orders of 4 in 2, then the load of
        # the state at t_final; no complex transform anywhere
        assert fft_counts == {"real": (2 + 4 * 16) * steps + 2, "complex": 0,
                              "calls": (2 + 2 * 16) * steps + 2, "combine": 16 * steps}
        fft_counts.update(dict.fromkeys(fft_counts, 0))
        scenarios.compute_diagnostics(trajectory, cfg.diagnostics)
        # the diagnostics: one stacked rfft and one stacked irfft of a row per
        # sample, and one rfft for the bound's phi0
        assert fft_counts == {"real": 2 * samples + 1, "complex": 0, "calls": 3, "combine": 0}

    def test_sparse_spectrum_yields_nan_fit_columns(self, tmp_path):
        # a pure sine never has enough usable modes for the decay fit; the
        # run still completes, with NaN in the fit columns
        text = """
[grid]
n_points = 64

[run]
b = -1.0
t_final = 0.1
dt_max = 0.01
sample_interval = 0.05

[init]
family = sine

[output]
dir = {outdir}
""".format(outdir=tmp_path / "sine_run")
        result = run_scenario(parse_config(text))
        assert np.isnan(result.table["sigma_hat"]).all()
        assert np.isnan(result.table["fit_quality"]).all()
        assert result.bound.gamma == -0.05
        assert np.isfinite(result.table["km_sigma_bound"]).all()


class TestRunConfigIsTheOnlySource:
    """What a run writes is what its RunConfig says, and b is held once."""

    def test_replaced_b_is_the_b_the_files_record(self, tmp_path):
        out = tmp_path / "run"
        cfg = parse_config(SMALL_RUN.format(outdir=out))
        cfg = dataclasses.replace(cfg, evolve=dataclasses.replace(cfg.evolve, b=1.0))
        result = run_scenario(cfg)
        assert result.trajectory.b == 1.0
        assert parse_config((out / "config.ini").read_text()) == cfg
        for name in ("initial.bgev", "final.bgev"):
            assert read_snapshot(out / name).b == result.trajectory.b

    def test_b_is_not_a_run_config_field(self):
        with pytest.raises(TypeError):
            dataclasses.replace(parse_config(MINIMAL), b=1.0)

    def test_config_copy_is_the_render(self, tmp_path):
        out = tmp_path / "run"
        cfg = parse_config(SMALL_RUN.format(outdir=out))
        run_scenario(cfg)
        assert (out / "config.ini").read_bytes() == render_config(cfg).encode()

    def test_rerun_of_the_config_copy_reproduces_the_outputs(self, tmp_path):
        out = tmp_path / "run"
        run_scenario(parse_config(SMALL_RUN.format(outdir=out)))
        names = ("config.ini", "diagnostics.csv", "initial.bgev", "final.bgev")
        first = {name: (out / name).read_bytes() for name in names}
        run_scenario(parse_config(first["config.ini"].decode()))
        assert {name: (out / name).read_bytes() for name in names} == first
