"""Benchmark of bfamlab, driven through its public functions.

    python3 bench/run.py --workload desk_run --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; bfamlab is imported from its src/ tree.
With --trace 0 the end-to-end metrics are measured with no tracing. With
--trace 1 the job list first runs untraced, then traced, and the per-layer
metrics come from the traced rounds. `all` runs every workload both ways in
child processes. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import os

# One thread for every BLAS and OpenMP pool; set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk_run", "snapshot_analysis", "taylor_series")
SETUP_REPEATS = 5
FLOOR_SIZES = (256, 1024, 4096)
FLOOR_BATCHES, FLOOR_BATCH_CALLS = 10, 50
FLOOR_UNIT_N, FLOOR_UNIT_STEPS = 1024, 10


def _environment():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    describe = "unavailable"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, check=False)
        describe = proc.stdout.strip() or describe
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_describe": describe,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _import_seconds():
    """Wall time of a fresh interpreter that imports bfamlab (scipy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bfamlab, bfamlab.cli"],
                   env=env, check=True)
    return time.perf_counter() - start


def _floor_step_seconds():
    """Seconds per RK4 step of the plain-rfft reference RHS at N = 1024.

    The unit of the *_floor_steps metrics. It runs no bfamlab code, so it
    moves with the speed of the machine at that moment and not with the
    program's.
    """
    import numpy as np

    import reference

    x = np.arange(FLOOR_UNIT_N) * (80.0 / FLOOR_UNIT_N)
    u = np.exp(-(((x - 40.0) / 3.0) ** 2))
    start = time.perf_counter()
    reference.rk4(u, 2.0, 80.0, 1e-3, FLOOR_UNIT_STEPS)
    return (time.perf_counter() - start) / FLOOR_UNIT_STEPS


class Runner:
    """Runs whole rounds of a workload's job list and checks every output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._seen = {}

    def round(self, samples, calibrate):
        """One pass over the job list.

        Appends (seconds, floor-step seconds just before the job, or None)
        to samples[label] for each job, and returns the jobs' results.
        """
        results = []
        for label, job in self.workload.jobs():
            unit = _floor_step_seconds() if calibrate else None
            start = time.perf_counter()
            try:
                result, error = job(), None
            except Exception as exc:  # a job that raises is a failed operation
                result, error = None, exc
            samples.setdefault(label, []).append((time.perf_counter() - start, unit))
            results.append((label, result, error))
        return results

    def _judge(self, label, result, error):
        self.attempted += 1
        if error is not None or not self.workload.succeeded(label, result):
            self.failed += 1
            if label not in self._seen:
                self._seen[label] = None
                print(f"operation {label} failed{f': {error!r}' if error else ''}", file=sys.stderr)
            return
        fingerprint = self.workload.fingerprint(label, result)
        if label not in self._seen:
            self._seen[label] = fingerprint
            try:
                self.problems.extend(self.workload.verify(label, result))
            except Exception as exc:  # an output the checks cannot read is a wrong output
                self.problems.append(f"{label}: output could not be checked: {exc!r}")
        elif self._seen[label] != fingerprint:
            self.problems.append(f"{label}: output differs from the first round")

    def measure(self, seconds, min_rounds, calibrate=True, before=None, after=None):
        """Whole rounds until `seconds` have passed and `min_rounds` are done.

        Returns (rounds, samples); the hooks run around each round's jobs,
        and the outputs are checked outside them.
        """
        samples, rounds = {}, 0
        start = time.perf_counter()
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            if before:
                before()
            try:
                results = self.round(samples, calibrate)
            finally:
                if after:
                    after()
            for label, result, error in results:
                self._judge(label, result, error)
            rounds += 1
        return rounds, samples


def best_seconds(samples):
    """Each job's best time over the rounds."""
    return [min(t for t, _ in runs) for runs in samples.values()]


def floor_steps(samples):
    """Each job's time in floor steps, the median over the rounds.

    Other tenants of a shared machine slow it down in phases of a second to
    minutes. A job and the floor step timed just before it see the same
    phase, so their ratio stays put where the seconds do not.
    """
    return [statistics.median(t / unit for t, unit in runs) for runs in samples.values()]


def _floor_ratios(seed, problems):
    """Time of rhs_F over the time of the plain-rfft reference RHS, per N."""
    import numpy as np

    import reference
    from bfamlab import dynamics, grid

    rng = np.random.default_rng(seed)
    ratios = {}
    for n in FLOOR_SIZES:
        g = grid.make_grid(n, 2 * np.pi)
        # smooth random field, band-limited to the dealiased band
        k = np.arange(n // 2 + 1)
        coeffs = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) * np.exp(-k / 8.0)
        coeffs[(k == 0) | (k > n // 3)] = 0.0
        samples = np.fft.irfft(coeffs, n)
        samples /= np.max(np.abs(samples))
        field = grid.RealField(g, samples)
        ref = reference.rhs(samples, 2.0, g.box_length)
        got = dynamics.rhs_F(field, 2.0).samples
        if not np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref)):
            problems.append(f"rhs_F and the reference RHS disagree at N = {n}")
        # alternate batches of the two and keep each one's best batch, so a
        # burst of load from elsewhere lands on neither side in particular
        best = {"program": math.inf, "floor": math.inf}
        calls = {
            "program": lambda: dynamics.rhs_F(field, 2.0),
            "floor": lambda: reference.rhs(samples, 2.0, g.box_length),
        }
        for _ in range(FLOOR_BATCHES):
            for side, call in calls.items():
                start = time.perf_counter()
                for _ in range(FLOOR_BATCH_CALLS):
                    call()
                best[side] = min(best[side], (time.perf_counter() - start) / FLOOR_BATCH_CALLS)
        ratios[f"dynamics.rhs_floor_ratio.N{n}"] = (best["program"] / best["floor"], "ratio")
    return ratios


def run_workload(name, seed, seconds, trace):
    import workloads
    from tracing import Tracer

    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
        writes = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workload = workloads.WORKLOADS[name](seed, workdir)
            start = time.perf_counter()
            workload.setup()
            writes.append(time.perf_counter() - start)
        runner = Runner(workload)
        if hasattr(workload, "read_back"):
            runner.problems.extend(workload.read_back())

        if not trace:
            rounds, samples = runner.measure(seconds, min_rounds=3)
            steps = floor_steps(samples)
            metrics = {
                "setup_s": (statistics.median(imports) + statistics.median(writes), "s"),
                "wall_floor_steps": (sum(steps), "steps"),
                "job_p50_floor_steps": (statistics.median(steps), "steps"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
            best = best_seconds(samples)
            info = {"rounds": rounds, "wall_s": sum(best), "job_p50_s": statistics.median(best)}
        else:
            metrics = _floor_ratios(seed, runner.problems)
            rounds, plain = runner.measure(seconds / 2.0, min_rounds=1, calibrate=False)
            tracer, per_round = Tracer(), []
            traced_rounds, traced = runner.measure(
                seconds / 2.0, min_rounds=2, calibrate=False, before=tracer.install,
                after=lambda: (tracer.uninstall(), per_round.append(tracer.snapshot())))
            metrics.update(tracer.layer_metrics(traced_rounds))
            metrics["trace.overhead_s"] = (sum(best_seconds(traced)) - sum(best_seconds(plain)), "s")
            runner.problems.extend(_trace_consistency(per_round, metrics))
            info = {"rounds": rounds, "traced_rounds": traced_rounds}

        if hasattr(workload, "read_back"):
            runner.problems.extend(workload.read_back())
        return runner, metrics, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _trace_consistency(per_round, metrics):
    """Counts must repeat exactly from round to round; RK4 makes four RHS calls a step."""
    problems = []
    rounds = [per_round[0]] + [
        {k: v - prev.get(k, 0) for k, v in cur.items()}
        for prev, cur in zip(per_round, per_round[1:])
    ]
    for i, counts in enumerate(rounds[1:], start=2):
        if counts != rounds[0]:
            changed = sorted(k for k in set(counts) | set(rounds[0])
                             if counts.get(k, 0) != rounds[0].get(k, 0))
            problems.append(f"traced round {i} counts differ from round 1: {changed[:5]}")
    steps, rhs_calls = metrics["evolve.steps"][0], metrics["dynamics.rhs_calls"][0]
    if steps and rhs_calls and rhs_calls != 4 * steps:
        problems.append(f"dynamics.rhs_calls {rhs_calls} != 4 x evolve.steps {steps}")
    return problems


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _print_table(metrics):
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>16.6g} {unit}")


def run_all(args):
    """Every workload, untraced and traced, each in its own process."""
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(f"{name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
            _print_table(metrics)
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(_result_line(correct, attempted, failed, combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "bfamlab" / "__init__.py").is_file():
        print(f"bfamlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import bfamlab

    if Path(bfamlab.__file__).resolve().parent != SRC / "bfamlab":
        print(f"imported bfamlab from {bfamlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    runner, metrics, info = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} operations, {runner.failed} failed")
    _print_table(metrics)
    print(json.dumps({"environment": _environment(), **info}))
    print(_result_line(not runner.problems, runner.attempted, runner.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
