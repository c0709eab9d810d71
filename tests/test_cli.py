"""Exit codes and output contracts of the command-line surface."""

import argparse
import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from bfamlab import (
    RealField,
    Snapshot,
    TruncationError,
    cli,
    evolve,
    gevrey_norm,
    hm_norm,
    km_phi,
    km_radius_norm,
    make_grid,
    rhs_F,
    sobolev_norm,
    taylor,
    write_snapshot,
)
from bfamlab.cli import main
from bfamlab.scenarios import SNAPSHOT_MAGIC, SNAPSHOT_VERSION, snapshot_of
from conftest import fft_frequencies, planted_field

CONFIG = """
[grid]
n_points = 512
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
    u = planted_field(grid, np.exp(-0.5 * np.abs(fft_frequencies(grid)[1])))
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

    def test_run_directory_holds_five_files(self, tmp_path):
        path = tmp_path / "sine.ini"
        path.write_text(SINE_CONFIG.format(amplitude=0.5, outdir=tmp_path / "sine_run"))
        assert main(["run", "--config", str(path)]) == 0
        assert sorted(p.name for p in (tmp_path / "sine_run").iterdir()) == [
            "config.ini", "diagnostics.csv", "final.bgev", "initial.bgev", "manifest.json",
        ]

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

    def test_sine_mode_outside_the_band_exit_code(self, tmp_path, capsys):
        path = tmp_path / "sine.ini"
        # the mode key rides on the amplitude line of the sine config
        path.write_text(SINE_CONFIG.format(amplitude="0.5\nmode = 40", outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 1
        assert "sine mode 40" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_status"] == 1

    def test_interrupt_is_recorded_as_130(self, config_file, tmp_path, monkeypatch):
        # the manifest records the code a shell shows for a run ended by SIGINT
        def interrupted(u0, cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(evolve, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):  # the CLI does not catch it
            main(["run", "--config", str(config_file)])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_status"] == 130

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.ini")]) == 3
        assert "io error" in capsys.readouterr().err

    def test_blowup_exit_code(self, tmp_path, capsys):
        text = CONFIG.replace("sample_interval = 0.1",
                              "sample_interval = 0.1\nblowup_threshold = 0.01")
        path = tmp_path / "blow.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 2
        assert "exceeded blow-up threshold" in capsys.readouterr().err

    def test_taylor_blowup_exit_code(self, tmp_path, capsys):
        # the default stepper: the first series step passes the threshold
        text = CONFIG.replace("sample_interval = 0.1",
                              "sample_interval = 0.1\nblowup_threshold = 0.01")
        path = tmp_path / "blow.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 2
        assert "exceeded blow-up threshold" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        # the series is the one march, so the manifest names none
        assert manifest["exit_status"] == 2 and "stepper" not in manifest

    def test_cut_series_exit_code(self, tmp_path, capsys):
        # c_1 of the 1e7 sech passes the coefficient cap: the series stops at
        # order 0, with no warning printed
        text = CONFIG.replace("amplitude = 0.25", "amplitude = 1e7")
        path = tmp_path / "cut.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: aborted at t = 0: the Taylor series "
                              "of the state stops at order 0")
        assert "warning" not in err

    def test_stalled_step_exit_code(self, tmp_path, capsys, monkeypatch):
        # a step too small to move t ends the run instead of looping forever
        propose, proposed = evolve._TaylorMarch.propose, []

        def shrinking(march):  # the march's own first step, then 1e-300
            proposed.append(propose(march) if not proposed else 1e-300)
            return proposed[-1]

        monkeypatch.setattr(evolve._TaylorMarch, "propose", shrinking)
        # the first series spans about 0.39, so t_final = 2 needs a second
        text = CONFIG.replace("t_final = 0.2", "t_final = 2.0")
        path = tmp_path / "stall.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 2
        assert "does not advance t" in capsys.readouterr().err

    def test_breaking_run_aborts_unresolved(self, tmp_path, capsys):
        # Camassa-Holm wave breaking from sin x, the bench's breaking run: the
        # band's top third passes TAIL_TOL at t ~ 0.90, and the run aborts at
        # the end of its 10th series step, before its first diagnostics row
        text = SINE_CONFIG.format(amplitude=1.0, outdir=tmp_path / "out")
        for old, new in (("n_points = 64", "n_points = 256"), ("t_final = 0.2", "t_final = 3.0"),
                         ("sample_interval = 0.1", "sample_interval = 0.5")):
            text = text.replace(old, new)
        path = tmp_path / "breaking.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        abort = re.fullmatch(r"numerical error: aborted at t = (\S+): the state is unresolved: "
                             r"band tail fraction \S+ exceeds 1e-10; raise n_points \(.*\)", line)
        assert abort and 0.8 < float(abort.group(1)) < 0.9
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["config.ini", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["exit_status"], manifest["steps"]) == (2, 10)

    def test_stepper_is_not_a_config_key(self, tmp_path, capsys):
        # every run uses the series; RK4 is the reference march, built in code
        text = CONFIG.replace("[run]", "[run]\nstepper = rk4")
        path = tmp_path / "rk4.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 1
        assert "unknown key 'stepper' in section [run]" in capsys.readouterr().err

    def test_dt_max_is_accepted_and_dropped(self, tmp_path):
        # configs written for the RK4 march set dt_max; it bounds no step
        runs = {}
        for name, line in (("without", ""), ("with", "dt_max = 0.01\n")):
            text = "".join(part for part in CONFIG.splitlines(keepends=True)
                           if not part.startswith("dt_max")).replace("[run]\n", "[run]\n" + line)
            path = tmp_path / f"{name}.ini"
            path.write_text(text.format(outdir=tmp_path / name))
            assert main(["run", "--config", str(path)]) == 0
            assert not re.search("^dt_max", (tmp_path / name / "config.ini").read_text(), re.M)
            runs[name] = [(tmp_path / name / file).read_bytes()
                          for file in ("diagnostics.csv", "initial.bgev", "final.bgev")]
        assert runs["with"] == runs["without"]

    @pytest.mark.parametrize("value, message", [
        ("nan", "dt_max must be finite, got nan"),
        ("inf", "dt_max must be finite, got inf"),
        ("0", "dt_max must be positive, got 0.0"),
        ("-1", "dt_max must be positive, got -1.0"),
        ("abc", "cannot parse run.dt_max = 'abc': could not convert string to float: 'abc'"),
    ])
    def test_dt_max_rejected_as_before(self, tmp_path, capsys, value, message):
        path = tmp_path / "dt.ini"
        path.write_text(CONFIG.replace("dt_max = 0.02", f"dt_max = {value}").format(
            outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")

    def test_cfl_safety_is_not_a_config_key(self, tmp_path, capsys):
        path = tmp_path / "cfl.ini"
        path.write_text(CONFIG.replace("[run]", "[run]\ncfl_safety = 0.2").format(
            outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "configuration error: unknown key 'cfl_safety' in section [run]\n")

    def test_non_finite_state_exit_code(self, tmp_path, capsys, monkeypatch):
        # a step far outside the series' disk overflows the Horner sum, and
        # the state is not finite
        propose = evolve._TaylorMarch.propose
        monkeypatch.setattr(evolve._TaylorMarch, "propose", lambda march: propose(march) * math.inf)
        text = CONFIG.replace("t_final = 0.2", "t_final = 1e300").replace(
            "sample_interval = 0.1", "sample_interval = 1e300\nblowup_threshold = 1e300")
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
        assert err == f"configuration error: k_min must be an integer >= 1, got {k_min}\n"

    @pytest.mark.parametrize("top, message", [
        (0, "cannot fit a decay rate to a zero spectrum"),
        # modes 4 .. 10 of the fit band, one fewer than the fit needs
        (10, "only 7 usable modes above k = 4; need at least 8"),
    ])
    def test_spectrum_it_cannot_fit(self, tmp_path, capsys, top, message):
        grid = make_grid(64, 2 * np.pi)
        u = sum((np.exp(-0.5 * k) * np.cos(k * grid.x) for k in range(1, top + 1)),
                np.zeros(64))
        path = tmp_path / "few.bgev"
        write_snapshot(path, snapshot_of(RealField(grid, u), t=0.0, b=2.0))
        assert main(["radius", "--snapshot", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: {message}\n"


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


def _report_lines(u, sigma, s, m, j_max):
    """The lines `bfamlab norms` prints after its header, each from the public
    function it names, called alone."""
    value, diverged = gevrey_norm(u, sigma, s)
    note = " (diverged: sigma exceeds the resolvable decay rate)" if diverged else ""
    lines = [f"l2          = {sobolev_norm(u, 0.0):.12g}",
             f"sobolev s={s:g}  = {sobolev_norm(u, s):.12g}",
             f"gevrey      = {value:.12g}{note}"]
    try:
        lines.append(f"hm m={m}      = {hm_norm(u, sigma, m, j_max):.12g}" if sigma > 0
                     else "hm          = skipped (requires sigma > 0)")
    except TruncationError as err:
        lines.append(f"hm          = not converged ({err})")
    lines.append(f"km_phi m=32 = {km_phi(u, sigma, 32):.12g}")
    try:
        lines.append(f"km_radius   = {km_radius_norm(u, sigma, j_max):.12g}")
    except TruncationError as err:
        lines.append(f"km_radius   = not converged ({err})")
    return lines


class TestNormsReportPin:
    """Every line of a `bfamlab norms` report equals, to its 12 printed digits,
    the public function it names called alone on a fresh field: the report's
    shared log-sum-exp changes no printed byte."""

    # j_max on either side of the 32-order block and 256-order chunk edges
    J_MAX = (1, 31, 32, 33, 200, 256, 300, 2000)

    @staticmethod
    def snapshots():
        """(name, N, L, samples, sigmas): sech profiles at 0 and below, near and past
        their strip half-width pi w / 2, and an entire sine at the bench's sigmas."""
        for n, width in ((256, 1.0), (1024, 1.2), (4096, 0.9)):
            x = np.arange(n) * (80.0 / n)
            samples = 1.2 / np.cosh((x - 33.0) / width)
            strip = np.pi * width / 2
            yield f"sech{n}", n, 80.0, samples, [0.0] + [r * strip for r in (0.5, 1.0, 1.5)]
        x = np.arange(256) * (2 * np.pi / 256)
        yield "sine", 256, 2 * np.pi, 0.8 * np.sin(x + 0.4), [0.0, 0.3, 1.0, 1.5]

    @pytest.mark.parametrize("s, m", [(2.0, 2), (3.0, 3)])
    def test_lines_match_the_public_functions(self, tmp_path, capsys, s, m):
        seen = set()
        for name, n, box, samples, sigmas in self.snapshots():
            path = tmp_path / f"{name}.bgev"
            write_snapshot(path, Snapshot(n_points=n, box_length=box, t=0.0, b=2.0,
                                          samples=samples))
            for sigma in sigmas:
                for j_max in self.J_MAX:
                    argv = ["norms", "--snapshot", str(path), "--sigma", repr(sigma),
                            "--s", repr(s), "--m", str(m), "--j-max", str(j_max)]
                    assert main(argv) == 0
                    header, *lines = capsys.readouterr().out.splitlines()
                    assert header == f"snapshot: N = {n}, L = {box:g}, t = 0, b = 2"
                    fresh = RealField(make_grid(n, box), samples.copy())
                    assert lines == _report_lines(fresh, sigma, s, m, j_max), (name, sigma, j_max)
                    seen.update(line.split(" = ", 1)[1].split(" (")[0] for line in lines
                                if "not converged" in line or "skipped" in line)
        # the cases reach the skipped hm line and both not-converged lines
        assert seen == {"skipped", "not converged"}


class TestParsePaths:
    """A command line that names a command is parsed once, by that command's
    parser; the rest goes through the top-level parser. Exit codes and output
    are those of the single top-level parse before."""

    USAGE = "usage: bfamlab [-h] [--version] {run,norms,radius,taylor,bound} ...\n"
    TOP_HELP = (
        USAGE + "\nCommand-line surface: run, norms, radius, taylor, bound. Exit codes: 0\n"
        "success, 1 configuration problem (including usage errors), 2 numerical error\n"
        "(blow-up included), 3 I/O failure.\n\npositional arguments:\n"
        "  {run,norms,radius,taylor,bound}\n"
        "    run                 full pipeline from a config file\n"
        "    norms               print the norms of a snapshot\n"
        "    radius              spectral decay fit of a snapshot\n"
        "    taylor              time-Taylor series report\n"
        "    bound               strip lower-bound table\n\noptions:\n"
        "  -h, --help            show this help message and exit\n"
        "  --version             show program's version number and exit\n"
    )
    NORMS_HELP = (
        "usage: bfamlab norms [-h] --snapshot SNAPSHOT --sigma SIGMA --s S [--m M]\n"
        "                     [--j-max J_MAX]\n\noptions:\n"
        "  -h, --help           show this help message and exit\n"
        "  --snapshot SNAPSHOT\n  --sigma SIGMA\n  --s S\n  --m M\n  --j-max J_MAX\n"
    )

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width

    @pytest.fixture
    def parses(self, monkeypatch):
        """The count of ArgumentParser.parse_known_args calls, one per parser run."""
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        return calls

    @pytest.mark.parametrize("argv, code, out, err, parser", [
        ([], 1, "", "error: the following arguments are required: command\n" + USAGE, "bfamlab"),
        (["--version"], 0, "bfamlab 0.1.0\n", "", "bfamlab"),
        (["-h"], 0, TOP_HELP, "", "bfamlab"),
        (["norms", "-h"], 0, NORMS_HELP, "", "bfamlab norms"),
    ])
    def test_recorded_output(self, capsys, parses, argv, code, out, err, parser):
        assert TestCachedParser.invoke(capsys, argv) == (code, out, err)
        assert parses == [parser]

    def test_unknown_command(self, capsys, parses):
        code, out, err = TestCachedParser.invoke(capsys, ["frobnicate"])
        assert (code, out) == (1, "")
        # the choices' quoting in this message differs between Python versions
        assert err.startswith("error: argument command: invalid choice: 'frobnicate' (choose from ")
        assert err.endswith(")\n" + self.USAGE)
        assert parses == ["bfamlab"]

    @pytest.mark.parametrize("options, message", [
        (["--s", "2"], "the following arguments are required: --sigma"),
        (["--sigma", "0.2", "--s", "2", "--m", "2.5"], "argument --m: invalid int value: '2.5'"),
        (["--sigma", "0.2", "--s", "2", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_usage_errors(self, planted_snapshot, capsys, parses, options, message):
        argv = ["norms", "--snapshot", str(planted_snapshot), *options]
        assert TestCachedParser.invoke(capsys, argv) == (1, "", f"error: {message}\n" + self.USAGE)
        assert parses == ["bfamlab norms"]

    def test_abbreviated_option_parses(self, planted_snapshot, capsys, parses):
        given = TestCachedParser.invoke(capsys, ["norms", "--snapshot", str(planted_snapshot),
                                     "--sig", "0.2", "--s", "2"])
        assert parses == ["bfamlab norms"]
        full = TestCachedParser.invoke(capsys, ["norms", "--snapshot", str(planted_snapshot),
                                    "--sigma", "0.2", "--s", "2"])
        assert given == full and given[0] == 0 and "km_radius" in given[1]


class TestMalformedSnapshot:
    """Snapshots that read back but describe no field: io error, exit 3."""

    def write(self, tmp_path, n_points, box_length, samples, t=0.0, b=2.0):
        # write_snapshot refuses these snapshots, so the bytes are put together
        # here: the "<4sIQddd" header (magic, version, N, L, t, b), then the payload
        path = tmp_path / "bad.bgev"
        header = struct.pack("<4sIQddd", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, n_points,
                             box_length, t, b)
        path.write_bytes(header + np.asarray(samples, dtype="<f8").tobytes())
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

    @pytest.mark.parametrize("t, b", [(np.nan, 2.0), (np.inf, 2.0), (0.0, np.nan), (0.0, -np.inf)])
    def test_non_finite_time_or_b(self, tmp_path, capsys, t, b):
        path = self.write(tmp_path, 64, 2 * np.pi, np.sin(make_grid(64, 2 * np.pi).x), t, b)
        assert main(["norms", "--snapshot", path, "--sigma", "0.2", "--s", "2.0"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("io error:") and "non-finite t" in err


class TestTaylorCommand:
    def test_report(self, config_file, capsys):
        assert main(["taylor", "--config", str(config_file), "--order", "8"]) == 0
        out = capsys.readouterr().out
        assert "temporal radius estimate" in out
        assert re.search(r"^series check at t = \S+: scaled L2 defect = \S+$", out, re.M)

    def test_check_line_sees_a_perturbed_coefficient(self, tmp_path, capsys, monkeypatch):
        # c_5 of the N = 64 sine series at b = 2 scaled by 1 + 1e-6: the
        # series' defect grows about 2.4e3-fold
        path = tmp_path / "sine.ini"
        path.write_text(SINE_CONFIG.format(amplitude=0.5, outdir=tmp_path / "out"))
        build = taylor.taylor_coeffs

        def perturbed(u0, b, order):
            series = build(u0, b, order)
            coeffs = list(series.coeffs)
            coeffs[5] = RealField(series.grid, coeffs[5].samples * (1.0 + 1e-6))
            return dataclasses.replace(series, coeffs=tuple(coeffs))

        def check_value():
            assert main(["taylor", "--config", str(path), "--order", "16"]) == 0
            last = capsys.readouterr().out.splitlines()[-1]
            return float(re.fullmatch(r"series check at t = 0\.05: scaled L2 defect = (\S+)",
                                      last).group(1))

        clean = check_value()
        monkeypatch.setattr(taylor, "taylor_coeffs", perturbed)
        assert check_value() >= 1e3 * clean > 0.0

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

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_cut_series_is_a_numerical_error(self, tmp_path, capsys):
        # the cap cuts the series of a 3000 sine at order 2, below the 6 the
        # radius needs, though the command line asked for 16
        path = tmp_path / "cut.ini"
        path.write_text(SINE_CONFIG.format(amplitude=3000.0, outdir=tmp_path / "out").replace(
            "n_points = 64", "n_points = 256"))
        assert main(["taylor", "--config", str(path), "--order", "16"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        warning, error = err.splitlines()
        assert warning.startswith("warning: Taylor coefficient c_3 reached sup norm ")
        assert error == ("numerical error: the coefficient cap cut the Taylor series at "
                         "order 2; the radius estimate needs order at least 6")

    def test_short_series_prints_nothing(self, tmp_path, capsys):
        # the radius needs order 6 (c_0 .. c_6); the table reaches stdout whole
        # or not at all
        path = tmp_path / "sine.ini"
        path.write_text(SINE_CONFIG.format(amplitude=0.5, outdir=tmp_path / "out"))
        assert main(["taylor", "--config", str(path), "--order", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: radius estimation needs order at least 6, got order 4\n"


class TestTaylorReportPin:
    """Each |c_k|_L2 line of `bfamlab taylor` is sobolev_norm(c_k, 0) at 6
    digits, and its check line is the series' scaled defect at t,
    t |p' - F(p)| / |p| at 3 digits, with p the series summed at t, p' its
    derivative sum_k k c_k t^{k-1} summed at t, and every norm
    sobolev_norm(., 0)."""

    FAMILIES = {
        "sine": ("6.283185307179586", "amplitude = 0.5"),
        "gaussian": ("80.0", "amplitude = 0.5\nwidth = 4.0"),
        "sech": ("80.0", "amplitude = 0.25\nwidth = 1.0"),
        "momentum_bump": ("80.0", "amplitude = 0.5\nwidth = 8.0"),
    }

    @staticmethod
    def derivative_sum(series, t):
        """sum_k k c_k t^{k-1} in Horner form."""
        acc = np.zeros(series.grid.n_points)
        for k in range(series.order, 0, -1):
            acc = acc * t + k * series.coeffs[k].samples
        return acc

    # the sine series at N = 512 reaches the coefficient cap before order 64
    @pytest.mark.filterwarnings("ignore:Taylor coefficient c_:UserWarning")
    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_lines_match_sobolev_norm(self, tmp_path, capsys, monkeypatch, family, n):
        box_length, init = self.FAMILIES[family]
        seen = {}
        build, evaluate = taylor.taylor_coeffs, taylor.taylor_eval

        def spy_coeffs(u0, b, order):
            seen["series"] = build(u0, b, order)
            return seen["series"]

        def spy_eval(series, t):
            seen["t"], seen["series_end"] = t, evaluate(series, t)
            return seen["series_end"]

        monkeypatch.setattr(taylor, "taylor_coeffs", spy_coeffs)
        monkeypatch.setattr(taylor, "taylor_eval", spy_eval)
        path = tmp_path / "taylor.ini"
        for b in (-1.0, 0.0, 2.0, 3.0):
            path.write_text(
                f"[grid]\nn_points = {n}\nbox_length = {box_length}\n\n"
                f"[run]\nb = {b}\nt_final = 0.2\ndt_max = 0.02\nsample_interval = 0.1\n\n"
                f"[init]\nfamily = {family}\n{init}\n"
            )
            for order in (8, 16, 64):
                seen.clear()
                assert main(["taylor", "--config", str(path), "--order", str(order)]) == 0
                lines = capsys.readouterr().out.splitlines()
                series = seen["series"]
                assert lines[1 : series.order + 2] == [
                    f"  |c_{k}|_L2 = {sobolev_norm(c, 0.0):.6g}"
                    for k, c in enumerate(series.coeffs)
                ], (b, order)
                t, p = seen["t"], seen["series_end"]
                residual = self.derivative_sum(series, t) - rhs_F(p, b).samples
                defect = t * sobolev_norm(RealField(p.grid, residual), 0.0)
                size = sobolev_norm(p, 0.0)
                value = defect / size if size > 0 else defect
                assert lines[-1] == f"series check at t = {t:g}: scaled L2 defect = {value:.3e}", (
                    b, order)


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
    def test_sample_count_out_of_range(self, tmp_path, capsys):
        # t_final / sample_interval overflows; the run is refused before its
        # directory or any sample is made
        text = CONFIG.replace("t_final = 0.2", "t_final = 1e300").replace(
            "sample_interval = 0.1", "sample_interval = 1e-300")
        path = tmp_path / "samples.ini"
        path.write_text(text.format(outdir=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: t_final / sample_interval must be at most")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
        except SystemExit as exit_:  # --help and --version exit through argparse
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
