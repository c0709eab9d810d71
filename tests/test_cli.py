"""Exit codes and output contracts of the command-line surface."""

import re

import numpy as np
import pytest

from bfamlab import RealField, Snapshot, SpectralField, cli, make_grid, write_snapshot
from bfamlab.cli import main
from bfamlab.grid import idft
from bfamlab.scenarios import snapshot_of

CONFIG = """
[grid]
n_points = 128
box_length = 80.0

[run]
b = 2.0
t_final = 0.2
dt_max = 0.02
sample_interval = 0.1

[init]
family = sech
amplitude = 0.25
width = 1.0

[diagnostics]
sigma_list = 0.2

[output]
dir = {outdir}
"""


SINE_CONFIG = """
[grid]
n_points = 64
box_length = 6.283185307179586

[run]
b = 2.0
t_final = 0.2
dt_max = 0.02
sample_interval = 0.1

[init]
family = sine
amplitude = {amplitude}

[output]
dir = {outdir}
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.format(outdir=tmp_path / "out"))
    return path


@pytest.fixture
def planted_snapshot(tmp_path):
    grid = make_grid(256, 2 * np.pi)
    u = idft(SpectralField(grid, np.exp(-0.5 * np.abs(grid.xi))))
    path = tmp_path / "planted.bgev"
    write_snapshot(path, snapshot_of(u, t=0.0, b=2.0))
    return path


class TestRunCommand:
    def test_success_and_outputs(self, config_file, tmp_path, capsys):
        assert main(["run", "--config", str(config_file)]) == 0
        csv = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        ts = [float(line.split(",")[0]) for line in csv[1:]]
        assert ts == sorted(ts)
        out = capsys.readouterr().out
        assert "run complete" in out
        assert "gevrey norm at sigma = 0.2" in out

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_library_warning_is_one_line(self, tmp_path, capsys):
        # the decay fit warns on this entire datum at t = 0; stderr holds the
        # message as one line, with no source line
        text = CONFIG.replace("family = sech", "family = momentum_bump").replace(
            "width = 1.0", "width = 8.0")
        path = tmp_path / "bump.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().err == (
            "warning: spectral decay steepens with |xi| (super-exponential); the fitted "
            "sigma_hat is a band average, the true radius is unbounded at this resolution\n"
        )

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nb = 2.0\n\n[init]\nfamily = nosuch\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.ini")]) == 3
        assert "io error" in capsys.readouterr().err

    def test_blowup_exit_code(self, tmp_path, capsys):
        text = CONFIG.replace("sample_interval = 0.1",
                              "sample_interval = 0.1\nblowup_threshold = 0.01")
        path = tmp_path / "blow.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 2
        assert "blow-up" in capsys.readouterr().err

    def test_non_finite_state_exit_code(self, tmp_path, capsys):
        # u^2 overflows in the first stage and the state turns NaN
        text = CONFIG.replace("amplitude = 0.25", "amplitude = 1e200").replace(
            "sample_interval = 0.1", "sample_interval = 0.1\nblowup_threshold = 1e300")
        path = tmp_path / "nan.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(path)]) == 2
        assert "non-finite state" in capsys.readouterr().err


class TestRadiusCommand:
    def test_planted_spectrum_report(self, planted_snapshot, capsys):
        assert main(["radius", "--snapshot", str(planted_snapshot)]) == 0
        out = capsys.readouterr().out
        sigma = float(out.splitlines()[0].split("=")[1])
        assert abs(sigma - 0.5) < 1e-6

    def test_missing_snapshot(self, tmp_path, capsys):
        assert main(["radius", "--snapshot", str(tmp_path / "none.bgev")]) == 3

    @pytest.mark.parametrize("k_min", ["0", "-3"])
    def test_k_min_below_one_rejected(self, planted_snapshot, capsys, k_min):
        assert main(["radius", "--snapshot", str(planted_snapshot), "--k-min", k_min]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: k_min must be >= 1, got {k_min}\n"


class TestNormsCommand:
    def test_prints_norm_table(self, planted_snapshot, capsys):
        code = main([
            "norms", "--snapshot", str(planted_snapshot),
            "--sigma", "0.2", "--s", "2.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gevrey" in out and "km_phi" in out

    def test_one_rfft_serves_every_norm(self, planted_snapshot, fft_counts, capsys):
        argv = ["norms", "--snapshot", str(planted_snapshot), "--sigma", "0.2", "--s", "2.0"]
        assert main(argv) == 0
        assert fft_counts == {"real": 1, "complex": 0, "calls": 1, "combine": 0}
        assert "km_radius" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "sigma, s", [("nan", "2.0"), ("inf", "2.0"), ("0.2", "nan"), ("-1", "2.0"), ("0.2", "inf")]
    )
    def test_non_finite_arguments_rejected(self, planted_snapshot, capsys, sigma, s):
        # rejected before the first line of the table reaches stdout
        argv = ["norms", "--snapshot", str(planted_snapshot), "--sigma", sigma, "--s", s]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("configuration error:")
        assert out == ""

    @pytest.mark.parametrize("option", [("--m", "1"), ("--m", "-3"), ("--j-max", "0")])
    def test_bad_order_prints_nothing(self, planted_snapshot, capsys, option):
        # hm_norm rejects these after l2, sobolev and gevrey are taken; the
        # table reaches stdout whole or not at all
        argv = ["norms", "--snapshot", str(planted_snapshot), "--sigma", "0.2", "--s", "2.0",
                *option]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("configuration error:")
        assert out == ""

    def test_gevrey_at_sigma_zero_prints_the_sobolev_value(self, tmp_path, capsys):
        grid = make_grid(4096, 80.0)
        u = RealField(grid, 1.0 / np.cosh((grid.x - 40.0) / 0.9))
        path = tmp_path / "sech.bgev"
        write_snapshot(path, snapshot_of(u, t=0.0, b=2.0))
        assert main(["norms", "--snapshot", str(path), "--sigma", "0", "--s", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        values = {name.strip(): value for name, value in (line.split(" = ", 1) for line in lines)}
        assert values["sobolev s=10"] == values["gevrey"]

    def test_divergent_sigma_noted(self, planted_snapshot, capsys):
        code = main([
            "norms", "--snapshot", str(planted_snapshot),
            "--sigma", "0.8", "--s", "2.0",
        ])
        assert code == 0
        assert "diverged" in capsys.readouterr().out


class TestMalformedSnapshot:
    """Snapshots that read back but describe no field: io error, exit 3."""

    def write(self, tmp_path, n_points, box_length, samples):
        path = tmp_path / "bad.bgev"
        write_snapshot(path, Snapshot(n_points=n_points, box_length=box_length,
                                      t=0.0, b=2.0, samples=samples))
        return str(path)

    @pytest.mark.parametrize("command", ["norms", "radius"])
    def test_non_finite_sample(self, tmp_path, capsys, command):
        samples = np.sin(make_grid(64, 2 * np.pi).x)
        samples[5] = np.nan
        path = self.write(tmp_path, 64, 2 * np.pi, samples)
        extra = ["--sigma", "0.2", "--s", "2.0"] if command == "norms" else []
        assert main([command, "--snapshot", path, *extra]) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n_points, box_length",
                             [(63, 2 * np.pi), (6, 2 * np.pi), (64, 0.0), (64, -1.0), (64, np.inf)])
    def test_header_no_grid_accepts(self, tmp_path, capsys, n_points, box_length):
        path = self.write(tmp_path, n_points, box_length, np.zeros(n_points))
        assert main(["radius", "--snapshot", path]) == 3
        assert "io error" in capsys.readouterr().err


class TestTaylorCommand:
    def test_report(self, config_file, capsys):
        assert main(["taylor", "--config", str(config_file), "--order", "8"]) == 0
        out = capsys.readouterr().out
        assert "temporal radius estimate" in out
        assert "stepper comparison" in out

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # c_1 of a 1e7 sine passes the coefficient cap: no usable coefficient
        path = tmp_path / "steep.ini"
        path.write_text(SINE_CONFIG.format(amplitude=1e7, outdir=tmp_path / "out"))
        assert main(["taylor", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        warning, error = err.splitlines()
        assert re.fullmatch(r"warning: Taylor coefficient c_1 reached sup norm \S+; "
                            r"series truncated at order 0 to avoid overflow noise", warning)
        assert error == "numerical error: no usable Taylor coefficients beyond the datum"

    def test_short_series_prints_nothing(self, tmp_path, capsys):
        # the radius needs 6 coefficients; the table reaches stdout whole or not at all
        path = tmp_path / "sine.ini"
        path.write_text(SINE_CONFIG.format(amplitude=0.5, outdir=tmp_path / "out"))
        assert main(["taylor", "--config", str(path), "--order", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: radius estimation needs")


class TestBoundCommand:
    def test_table(self, config_file, capsys):
        assert main(["bound", "--config", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "sigma(t)" in out and "lambda" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_missing_required_option(self, capsys):
        assert main(["run"]) == 1


class TestNonFiniteRunParameters:
    @pytest.mark.parametrize("line", [
        "t_final = nan", "t_final = inf", "dt_max = nan",
        "sample_interval = nan", "blowup_threshold = nan",
    ])
    def test_config_error_exit_code(self, tmp_path, capsys, line):
        key = line.split()[0]
        text = "\n".join(
            text_line for text_line in CONFIG.splitlines() if not text_line.startswith(key)
        ).replace("[run]", f"[run]\n{line}")
        path = tmp_path / "nonfinite.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err


class TestNonFiniteInitAndDiagnostics:
    @pytest.mark.parametrize("section, line", [
        ("init", "amplitude = nan"), ("init", "amplitude = inf"),
        ("init", "width = inf"), ("init", "center = nan"),
        ("diagnostics", "s = nan"), ("diagnostics", "gamma = nan"),
        ("diagnostics", "gamma = -inf"), ("diagnostics", "sigma_list = nan"),
    ])
    def test_config_error_exit_code(self, tmp_path, capsys, section, line):
        key = line.split()[0]
        text = "\n".join(
            text_line for text_line in CONFIG.splitlines()
            if not text_line.startswith(f"{key} ")
        ).replace(f"[{section}]", f"[{section}]\n{line}")
        path = tmp_path / "nonfinite.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {key} must be finite" in err
        assert "Traceback" not in err


class TestCachedParser:
    """main reuses one parser per process; a call sees only its own options."""

    @staticmethod
    def invoke(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exit_:  # --version exits through argparse
            code = exit_.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_repeated_calls_match_first(self, planted_snapshot, capsys):
        calls = [
            ["norms", "--snapshot", str(planted_snapshot), "--sigma", "0.2", "--s", "2.0"],
            ["radius", "--snapshot", str(planted_snapshot)],
            ["norms", "--snapshot", str(planted_snapshot)],
            ["--version"],
        ]
        cli._build_parser.cache_clear()
        first = [self.invoke(capsys, argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, 0, 1, 0]
        assert "bfamlab 0.1.0" in first[3][1]
        for _ in range(2):
            assert [self.invoke(capsys, argv) for argv in calls] == first
        assert cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("command, option, value", [
        ("norms", "--j-max", "5"), ("radius", "--k-min", "40"),
    ])
    def test_option_does_not_leak(self, planted_snapshot, capsys, command, option, value):
        argv = [command, "--snapshot", str(planted_snapshot)]
        if command == "norms":
            argv += ["--sigma", "0.2", "--s", "2.0"]
        cli._build_parser.cache_clear()
        default = self.invoke(capsys, argv)
        given = self.invoke(capsys, argv + [option, value])
        assert given[0] == 0 and given[1] != default[1]
        assert self.invoke(capsys, argv) == default
