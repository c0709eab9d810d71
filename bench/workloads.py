"""The three benchmark workloads and their output checks.

Each workload builds its inputs from the seed in `setup()`, lists its jobs in
`jobs()` (one job is one call into bfamlab's public surface, the unit timed
and counted as an operation), and judges a job's output with `succeeded()`,
`verify()` (full check against independent references, made the first time
a job is seen) and `fingerprint()` (later rounds must reproduce it exactly).
"""

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import reference
from bfamlab import cli, dynamics, grid, scenarios, taylor

SNAPSHOT_HEADER_BYTES = 40  # "<4sIQddd": magic, version, N, L, t, b


def _call_cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _read_bgev(path):
    """Samples of a .bgev snapshot, read without bfamlab."""
    raw = Path(path).read_bytes()
    return np.frombuffer(raw[SNAPSHOT_HEADER_BYTES:], dtype="<f8").astype(np.float64)


def _rel(value, expected):
    return abs(value - expected) / abs(expected)


def _sha(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------


class DeskRun:
    """`bfamlab run` at the acceptance-suite scales, plus the wave-breaking run."""

    name = "desk_run"
    B_VALUES = (-1.0, 0.0, 2.0, 3.0)
    BREAKING = "breaking_b2"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        u = [float(v) for v in rng.uniform(-1.0, 1.0, size=6)]
        # criterion-04 scale: momentum bump, N = 512, L = 80, t = 5
        bump = dict(amplitude=0.5 * (1 + 0.1 * u[0]), width=8.0 * (1 + 0.1 * u[1]),
                    center=40.0 + 10.0 * u[2])
        # criterion-09 scale: sech, N = 1024, L = 80, t = 10; width >= 1 keeps
        # the momentum sign-definite
        sech = dict(amplitude=0.05 * (1 + 0.1 * u[3]), width=1.0 + 0.05 * (1 + u[4]),
                    center=40.0 + 10.0 * u[5])
        self.workdir = Path(workdir) / self.name
        self.specs = {}
        for b in self.B_VALUES:
            self.specs[f"c04_b{b:g}"] = dict(
                n=512, L=80.0, b=b, t=5.0, dt=0.01, family="momentum_bump", sign=True, **bump)
            self.specs[f"c09_b{b:g}"] = dict(
                n=1024, L=80.0, b=b, t=10.0, dt=0.02, family="sech", sign=True, **sech)
        # Camassa-Holm wave breaking from sin x; independent of the seed
        self.specs[self.BREAKING] = dict(
            n=256, L=2 * math.pi, b=2.0, t=3.0, dt=0.02, family="sine", sign=False,
            amplitude=1.0, width=1.0, center=None)

    def _config(self, label, spec):
        center = "" if spec["center"] is None else f"center = {spec['center']!r}\n"
        return (
            f"[grid]\nn_points = {spec['n']}\nbox_length = {spec['L']!r}\n"
            f"[run]\nb = {spec['b']!r}\nt_final = {spec['t']!r}\ndt_max = {spec['dt']!r}\n"
            f"sample_interval = 0.5\nrequire_sign_certificate = {str(spec['sign']).lower()}\n"
            f"[init]\nfamily = {spec['family']}\namplitude = {spec['amplitude']!r}\n"
            f"width = {spec['width']!r}\n{center}"
            f"[diagnostics]\nsigma_list = 0.1, 0.5\n"
            f"[output]\ndir = {self.workdir / label / 'out'}\n"
        )

    def setup(self):
        for label, spec in self.specs.items():
            folder = self.workdir / label
            folder.mkdir(parents=True, exist_ok=True)
            (folder / "config.ini").write_text(self._config(label, spec))

    def jobs(self):
        return [
            (label, lambda label=label: _call_cli(
                ["run", "--config", str(self.workdir / label / "config.ini")])[0])
            for label in self.specs
        ]

    def _diagnostics(self, label):
        text = (self.workdir / label / "out" / "diagnostics.csv").read_text()
        lines = text.splitlines()
        header = lines[0].split(",")
        fields = [line.split(",") for line in lines[1:]]
        return text, header, fields

    def succeeded(self, label, code):
        if label != self.BREAKING:
            return code == 0
        # the breaking run succeeds once it aborts, or flags the rows past
        # breaking (t > 1.5) as unresolved
        if code == 2:
            return True
        _, header, fields = self._diagnostics(label)
        if code != 0 or "resolved" not in header:
            return False
        t_col, r_col = header.index("t"), header.index("resolved")
        late = [row[r_col] for row in fields if float(row[t_col]) > 1.5]
        return bool(late) and all(v.strip().lower() in ("0", "0.0", "false") for v in late)

    def fingerprint(self, label, code):
        out = self.workdir / label / "out"
        files = [out / "diagnostics.csv", out / "initial.bgev", out / "final.bgev"]
        return _sha(code, *(p.read_bytes() for p in files if p.exists()))

    def verify(self, label, code):
        if label == self.BREAKING:
            return []
        spec = self.specs[label]
        problems = []
        text, header, fields = self._diagnostics(label)
        # bit-exact re-parse: every field is a float printed at 17 digits
        reprinted = [",".join(f"{float(v):.17g}" for v in row) for row in fields]
        if "\n".join([",".join(header)] + reprinted) + "\n" != text:
            problems.append("diagnostics.csv does not re-parse bit-exactly")
        col = {name: np.array([float(row[i]) for row in fields]) for i, name in enumerate(header)}
        expected_rows = int(round(spec["t"] / 0.5)) + 1
        if len(fields) != expected_rows or col["t"][-1] != spec["t"]:
            problems.append(f"{len(fields)} rows ending at t = {col['t'][-1]}")
        mean, m_l1, h1 = col["mean_u"], col["m_l1"], col["h1"]
        drifts = {
            "mean": (abs(mean[-1] - mean[0]) / abs(mean[0]), 1e-10),
            "m_l1": (float(np.max(np.abs(m_l1 - m_l1[0]))) / m_l1[0], 1e-4),
        }
        if spec["b"] == 2.0:
            drifts["h1"] = (abs(h1[-1] - h1[0]) / h1[0], 1e-6)
        # the initial row against closed forms of the datum
        if spec["family"] == "sech":
            drifts["l2(0) vs a sqrt(2w)"] = (
                _rel(col["l2"][0], reference.sech_l2(spec["amplitude"], spec["width"])), 1e-10)
        else:
            drifts["mean(0) vs a w sqrt(pi)"] = (
                _rel(mean[0], reference.gaussian_integral(spec["amplitude"], spec["width"])), 1e-10)
        # rhs_F on the final state against the plain-rfft right-hand side,
        # relative to the size of the advective term: at b = -1 the terms
        # nearly cancel, and round-off is relative to the terms, not the sum
        final = _read_bgev(self.workdir / label / "out" / "final.bgev")
        field = grid.RealField(grid.make_grid(spec["n"], spec["L"]), final)
        ref = reference.rhs(final, spec["b"], spec["L"])
        got = dynamics.rhs_F(field, spec["b"]).samples
        scale = np.max(np.abs(final * reference.derivative(final, spec["L"])))
        drifts["rhs_F vs reference"] = (float(np.max(np.abs(got - ref)) / scale), 1e-12)
        for what, (value, tol) in drifts.items():
            if not value < tol:
                problems.append(f"{what} = {value:.3e}, limit {tol:g}")
        return problems


# ---------------------------------------------------------------------------


def _parse_report(text):
    """`key = value` lines of a CLI report: number, and the rest of the line."""
    report = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(" = ")
        if not sep or line.startswith("snapshot:"):
            continue
        token = rest.split()[0] if rest.split() else ""
        try:
            number = float(token)
        except ValueError:
            number = None
        report[key.strip()] = (number, rest.strip())
    return report


class SnapshotAnalysis:
    """`bfamlab norms` and `bfamlab radius` on snapshots written in set-up."""

    name = "snapshot_analysis"
    # (N, width): the width is fixed per snapshot, so the number of resolved
    # modes, and with it the work, does not change with the seed
    SECH = ((256, 1.0), (1024, 1.2), (4096, 0.9))
    SECH_L = 80.0
    SECH_PROBES = (0.3, 0.6, 1.3, 1.8)  # sigma / strip half-width, away from 1
    SINE_N = 256
    SINE_PROBES = ((0.3, 2.0, 2), (1.0, 2.0, 3), (1.5, 3.0, 2))  # (sigma, s, m)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = Path(workdir) / self.name
        self.snapshots = {}
        for n, w in self.SECH:
            a, center = (float(v) for v in rng.uniform((0.5, 0.0), (1.5, self.SECH_L)))
            x = np.arange(n) * (self.SECH_L / n)
            samples = reference.periodic_sech(x, a, w, center, self.SECH_L)
            strip = reference.sech_strip(w)
            # resolved: e^{-strip * xi_Nyquist} lies below the fit floor (1e-13)
            resolved = strip * math.pi * n / self.SECH_L > 30.0
            self.snapshots[f"sech_N{n}"] = dict(
                samples=samples, L=self.SECH_L, amplitude=a, width=w, strip=strip,
                resolved=resolved)
        a, phase = (float(v) for v in rng.uniform((0.5, 0.0), (1.5, 2 * math.pi)))
        x = np.arange(self.SINE_N) * (2 * math.pi / self.SINE_N)
        self.snapshots["sine"] = dict(samples=a * np.sin(x + phase), L=2 * math.pi, amplitude=a)

    def _path(self, key):
        return self.workdir / f"{key}.bgev"

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for key, snap in self.snapshots.items():
            scenarios.write_snapshot(self._path(key), scenarios.Snapshot(
                n_points=snap["samples"].size, box_length=snap["L"], t=0.0, b=2.0,
                samples=snap["samples"]))

    def jobs(self):
        jobs = []
        for key, snap in self.snapshots.items():
            path = str(self._path(key))
            if key == "sine":
                probes = self.SINE_PROBES
            else:
                probes = [(r * snap["strip"], 2.0, 2) for r in self.SECH_PROBES]
                jobs.append(((key, "radius"), lambda path=path: _call_cli(
                    ["radius", "--snapshot", path])))
            for sigma, s, m in probes:
                argv = ["norms", "--snapshot", path, "--sigma", repr(sigma),
                        "--s", repr(s), "--m", str(m)]
                jobs.append(((key, "norms", sigma, s, m), lambda argv=argv: _call_cli(argv)))
        return jobs

    def succeeded(self, label, result):
        return result[0] == 0

    def fingerprint(self, label, result):
        return _sha(*result)

    def read_back(self):
        """Snapshots as bfamlab reads them must equal what was written, bit for bit."""
        problems = []
        for key, snap in self.snapshots.items():
            got = scenarios.read_snapshot(self._path(key)).samples
            if got.tobytes() != snap["samples"].astype("<f8").tobytes():
                problems.append(f"{key}: snapshot does not read back bit-identical")
        return problems

    def verify(self, label, result):
        key, command = label[0], label[1]
        snap = self.snapshots[key]
        report = _parse_report(result[1])
        a = snap["amplitude"]
        checks = {}
        if command == "radius":
            if snap["resolved"]:
                checks["sigma_hat vs pi w/2"] = (_rel(report["sigma_hat"][0], snap["strip"]), 0.02)
        elif key == "sine":
            sigma, s, m = label[2:]
            checks.update({
                "l2": (_rel(report["l2"][0], reference.sine_sobolev(a, 0.0)), 1e-11),
                "sobolev": (_rel(report[f"sobolev s={s:g}"][0], reference.sine_sobolev(a, s)), 1e-11),
                "gevrey": (_rel(report["gevrey"][0], reference.sine_gevrey(a, sigma, s)), 1e-11),
                "hm": (_rel(report[f"hm m={m}"][0], reference.sine_hm(a, sigma, m)), 1e-10),
                "km_phi": (_rel(report["km_phi m=32"][0], reference.sine_km_phi(a, sigma)), 1e-10),
                "km_radius": (_rel(report["km_radius"][0], reference.sine_km_radius(a, sigma)), 1e-10),
            })
            if "diverged" in report["gevrey"][1]:
                checks["gevrey flagged diverged on an entire function"] = (1.0, 0.0)
        else:
            sigma = label[2]
            checks["l2 vs a sqrt(2w)"] = (
                _rel(report["l2"][0], reference.sech_l2(a, snap["width"])), 1e-10)
            if snap["resolved"]:
                flagged = "diverged" in report["gevrey"][1]
                if flagged != (sigma > snap["strip"]):
                    checks[f"gevrey divergence flag {flagged} at sigma/strip "
                           f"{sigma / snap['strip']:.2f}"] = (1.0, 0.0)
        return [f"{key} {command}: {what} = {value:.3e}, limit {tol:g}"
                for what, (value, tol) in checks.items() if not value < tol]


# ---------------------------------------------------------------------------


class TaylorSeries:
    """taylor_coeffs, time_radius_estimate and taylor_eval on sine data."""

    name = "taylor_series"
    N_VALUES = (256, 1024, 4096)
    ORDERS = (16, 64)
    B_VALUES = (0.0, 1.0, 2.0, 3.0)
    POINTS_PER_PERIOD = 256  # the box holds N/256 periods of sin x
    REFERENCE_STEPS = 100

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        # amplitude <= 0.5 keeps every coefficient up to K = 64 below the
        # program's 1e12 truncation cap, so each job does its full K orders
        self.amplitude, self.phase = (float(v) for v in rng.uniform((0.4, 0.0), (0.5, 2 * math.pi)))
        self.data = {}
        self._references = {}

    def setup(self):
        for n in self.N_VALUES:
            g = grid.make_grid(n, 2 * math.pi * n / self.POINTS_PER_PERIOD)
            self.data[n] = grid.RealField(g, self.amplitude * np.sin(g.x + self.phase))

    def jobs(self):
        return [
            ((n, k, b), lambda n=n, k=k, b=b: self._job(self.data[n], b, k))
            for n in self.N_VALUES for k in self.ORDERS for b in self.B_VALUES
        ]

    @staticmethod
    def _job(u0, b, order):
        series = taylor.taylor_coeffs(u0, b, order)
        radius = taylor.time_radius_estimate(series)
        t = min(radius / 4.0, 0.05)
        return series, radius, t, taylor.taylor_eval(series, t)

    def succeeded(self, label, result):
        return True

    def fingerprint(self, label, result):
        series, radius, t, value = result
        return _sha(radius, t, value.samples.tobytes(),
                    *(c.samples.tobytes() for c in series.coeffs))

    def verify(self, label, result):
        n, order, b = label
        series, radius, t, value = result
        u0 = self.data[n]
        coeffs = [c.samples for c in series.coeffs]
        checks = {}
        if series.order != order:
            return [f"{label}: series stopped at order {series.order}"]
        if not (math.isfinite(radius) and radius > 0):
            return [f"{label}: radius estimate {radius}"]
        c1 = reference.sine_first_coeff(self.amplitude, b, self.phase, u0.grid.x)
        checks["c_1 vs -a^2 (1+b)/5 sin 2x"] = (float(np.max(np.abs(coeffs[1] - c1))), 1e-12)
        # c_k(2v) = 2^{k+1} c_k(v), with v = u0/2 (exact in binary arithmetic)
        half = taylor.taylor_coeffs(grid.RealField(u0.grid, 0.5 * u0.samples), b, order)
        checks["c_k(2v) vs 2^(k+1) c_k(v)"] = (max(
            float(np.max(np.abs(c - 2.0 ** (k + 1) * h.samples)) / max(np.max(np.abs(c)), 1e-300))
            for k, (c, h) in enumerate(zip(coeffs, half.coeffs))), 1e-12)
        key = (n, b, t)
        if key not in self._references:
            self._references[key] = reference.rk4(
                u0.samples, b, u0.grid.box_length, t, self.REFERENCE_STEPS)
        ref = self._references[key]
        checks[f"Horner at t = {t:.3g} vs RK4 reference"] = (
            float(np.linalg.norm(value.samples - ref) / np.linalg.norm(ref)), 1e-8)
        return [f"{label}: {what} = {value_:.3e}, limit {tol:g}"
                for what, (value_, tol) in checks.items() if not value_ < tol]


WORKLOADS = {cls.name: cls for cls in (DeskRun, SnapshotAnalysis, TaylorSeries)}
