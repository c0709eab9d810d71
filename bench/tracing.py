"""Span tracing of bfamlab's layers from outside the package.

`Tracer.install()` replaces every public function of the bfamlab modules,
wherever a module holds a reference to it, with a wrapper that records a
span; `uninstall()` puts the originals back. The FFT entry points of
numpy.fft and scipy.fft, the field validators and a few named private
kernels get spans too. Spans are aggregated as they close: calls, inclusive
time, and self time (span time minus the time its child spans cover).
"""

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "dynamics", "evolve", "norms", "taylor", "analyticity", "scenarios", "cli")

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")

# Private kernels that are layer boundaries in their own right.
PRIVATE_SPANS = {"_rhs_from_products": "combine"}

# Spans whose time is summed as one quantity; a span nested in another span
# of its group is not counted twice.
GROUPS = {
    "dynamics.momentum": (
        "dynamics.momentum", "dynamics.inverse_momentum", "dynamics.momentum_l1",
        "dynamics.momentum_min", "dynamics.momentum_max",
    ),
    "analyticity.bound": (
        "analyticity.km_bound_from_run", "analyticity.km_bound_sigma",
        "analyticity.km_bound_radius", "analyticity.km_lambda",
        "analyticity.km_constants", "analyticity.default_gamma",
    ),
    "scenarios.init": ("scenarios.initial_data", "scenarios.build_initial"),
    "scenarios.io": (
        "scenarios.write_snapshot", "scenarios.read_snapshot",
        "scenarios.emit_diagnostics", "scenarios.parse_diagnostics",
    ),
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

NORM_FUNCTIONS = ("sobolev_norm", "gevrey_norm", "hm_norm", "km_phi", "km_radius_norm")

# Counts attributed to every open span of these names.
COUNT_CONTEXTS = ("dynamics.rhs_F", "evolve.rk4_step")


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _diagnostics_bytes(path):
    path = os.fspath(path)
    stem, _ = os.path.splitext(os.path.basename(path))
    folder = os.path.dirname(path) or "."
    companions = [
        os.path.join(folder, f) for f in os.listdir(folder)
        if f.startswith(stem + "_") and f.endswith(".dat")
    ]
    return _size(path) + sum(_size(p) for p in companions)


def _fit_usable(result):
    return getattr(result, "fit_quality", 0.0) >= 0.99


# Counts taken from a span's arguments or result when it closes.
POST_HOOKS = {
    "taylor.taylor_coeffs": lambda args, res: {"taylor.coeffs_built": res.order},
    "analyticity.fit_decay_radius": lambda args, res: {"analyticity.fit_usable": int(_fit_usable(res))},
    "scenarios.write_snapshot": lambda args, res: {"scenarios.bytes_written": _size(args[0])},
    "scenarios.emit_diagnostics": lambda args, res: {"scenarios.bytes_written": _diagnostics_bytes(args[1])},
    "scenarios.read_snapshot": lambda args, res: {"scenarios.bytes_read": _size(args[0])},
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)  # per span name, or per group
        self.self_time = defaultdict(float)  # per layer
        self.counts = Counter()
        self._stack = []  # open spans: [name, child_time]
        self._open = Counter()  # open span names and groups
        self._patches = []
        self._wrapped = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        key = (name, id(fn))
        if key in self._wrapped:
            return self._wrapped[key]
        group = GROUP_OF.get(name, name)
        layer = name.split(".")[0]
        hook = POST_HOOKS.get(name)
        stack, open_, perf = self._stack, self._open, time.perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            top = stack[-1][0] if stack else None
            stack.append(frame)
            open_[group] += 1
            if group != name:
                open_[name] += 1
            self._count_entry(name, top)
            start = perf()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                duration = perf() - start
                stack.pop()
                open_[group] -= 1
                if group != name:
                    open_[name] -= 1
                self.calls[name] += 1
                self.self_time[layer] += duration - frame[1]
                if open_[group] == 0:
                    self.incl[group] += duration
                if group != name and open_[name] == 0:
                    self.incl[name] += duration
                if stack:
                    stack[-1][1] += duration
                if hook is not None and returned:
                    self.counts.update(hook(args, result))

        self._wrapped[key] = span
        return span

    def _count_entry(self, name, parent):
        if name in ("grid.fft", "grid.validate"):
            for context in COUNT_CONTEXTS:
                if self._open[context]:
                    self.counts[f"{context}/{name}"] += 1
        elif name == "norms.logsumexp" and parent is not None:
            self.counts[f"{parent}/logsumexp"] += 1

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _traced(self, fn):
        """`fn` wrapped in a span if it is a public function of a layer."""
        if not inspect.isfunction(fn):
            return fn
        home = fn.__module__.split(".")
        if home[0] != "bfamlab" or home[-1] not in LAYERS:
            return fn
        name = PRIVATE_SPANS.get(fn.__name__, fn.__name__)
        if name.startswith("_") or not name.isidentifier():
            return fn
        return self._wrap(f"{home[-1]}.{name}", fn)

    def install(self):
        import bfamlab

        modules = [importlib.import_module(f"bfamlab.{layer}") for layer in LAYERS]
        for owner in [bfamlab] + modules:
            for attr, value in list(vars(owner).items()):
                traced = self._traced(value)
                if traced is not value:
                    self._patch(owner, attr, traced)
        norms = modules[LAYERS.index("norms")]
        if hasattr(norms, "logsumexp"):
            self._patch(norms, "logsumexp", self._wrap("norms.logsumexp", norms.logsumexp))
        for path in FFT_MODULES:
            module = importlib.import_module(path)
            for attr in FFT_FUNCTIONS:
                self._patch(module, attr, self._wrap("grid.fft", getattr(module, attr)))
        grid = modules[0]
        for cls in (getattr(grid, name, None) for name in ("RealField", "SpectralField")):
            if cls is not None and "__post_init__" in vars(cls):
                self._patch(cls, "__post_init__", self._wrap("grid.validate", cls.__post_init__))
        scenarios = modules[LAYERS.index("scenarios")]
        monitors = getattr(scenarios, "STANDARD_MONITORS", None)
        if monitors is not None:
            self._patch(scenarios, "STANDARD_MONITORS", {
                key: self._wrap("evolve.monitor", self._traced(fn)) for key, fn in monitors.items()
            })

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- read-out ----------------------------------------------------------

    def snapshot(self):
        """Every count recorded so far, for the round-to-round repeat check."""
        state = {f"calls:{k}": v for k, v in self.calls.items()}
        state.update({f"count:{k}": v for k, v in self.counts.items()})
        return state

    def layer_metrics(self, rounds):
        """Per-layer metrics, each per round of the workload's job list."""
        calls, incl, counts = self.calls, self.incl, self.counts

        def per_round(value):
            return value / rounds

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        rhs_calls = calls["dynamics.rhs_F"]
        steps = calls["evolve.rk4_step"]
        coeffs_built = counts["taylor.coeffs_built"]
        fits = calls["analyticity.fit_decay_radius"]
        out = {
            "grid.fft_calls": (per_round(calls["grid.fft"]), "count"),
            "grid.fft_s": (per_round(incl["grid.fft"]), "s"),
            "grid.fields_validated": (per_round(calls["grid.validate"]), "count"),
            "grid.validation_s": (per_round(incl["grid.validate"]), "s"),
            "dynamics.rhs_calls": (per_round(rhs_calls), "count"),
            "dynamics.rhs_s": (per_round(incl["dynamics.rhs_F"]), "s"),
            "dynamics.rhs_us_per_call": (ratio(incl["dynamics.rhs_F"], rhs_calls, 1e6), "us"),
            "dynamics.fft_per_rhs": (ratio(counts["dynamics.rhs_F/grid.fft"], rhs_calls), "count"),
            "dynamics.fields_per_rhs": (ratio(counts["dynamics.rhs_F/grid.validate"], rhs_calls), "count"),
            "dynamics.combine_calls": (per_round(calls["dynamics.combine"]), "count"),
            "dynamics.combine_s": (per_round(incl["dynamics.combine"]), "s"),
            "dynamics.momentum_s": (per_round(incl["dynamics.momentum"]), "s"),
            "evolve.steps": (per_round(steps), "count"),
            "evolve.run_s": (per_round(incl["evolve.run"]), "s"),
            "evolve.rk4_step_s": (per_round(incl["evolve.rk4_step"]), "s"),
            "evolve.step_us": (ratio(incl["evolve.rk4_step"], steps, 1e6), "us"),
            "evolve.fft_per_step": (ratio(counts["evolve.rk4_step/grid.fft"], steps), "count"),
            "evolve.fields_per_step": (ratio(counts["evolve.rk4_step/grid.validate"], steps), "count"),
            "evolve.cfl_dt_s": (per_round(incl["evolve.cfl_dt"]), "s"),
            "evolve.monitor_s": (per_round(incl["evolve.monitor"]), "s"),
            "norms.calls": (per_round(sum(calls[f"norms.{f}"] for f in NORM_FUNCTIONS)), "count"),
            "norms.sobolev_s": (per_round(incl["norms.sobolev_norm"]), "s"),
            "norms.gevrey_s": (per_round(incl["norms.gevrey_norm"]), "s"),
            "norms.hm_s": (per_round(incl["norms.hm_norm"]), "s"),
            "norms.km_phi_s": (per_round(incl["norms.km_phi"]), "s"),
            "norms.km_radius_s": (per_round(incl["norms.km_radius_norm"]), "s"),
            "norms.logsumexp_calls": (per_round(calls["norms.logsumexp"]), "count"),
        }
        for fn in ("km_phi", "hm_norm", "km_radius_norm"):
            out[f"norms.logsumexp_per_call.{fn}"] = (
                ratio(counts[f"norms.{fn}/logsumexp"], calls[f"norms.{fn}"]), "count")
        out.update({
            "taylor.coeffs_s": (per_round(incl["taylor.taylor_coeffs"]), "s"),
            "taylor.coeffs_built": (per_round(coeffs_built), "count"),
            "taylor.us_per_coeff": (ratio(incl["taylor.taylor_coeffs"], coeffs_built, 1e6), "us"),
            "taylor.radius_s": (per_round(incl["taylor.time_radius_estimate"]), "s"),
            "taylor.eval_s": (per_round(incl["taylor.taylor_eval"]), "s"),
            "analyticity.fit_calls": (per_round(fits), "count"),
            "analyticity.fit_s": (per_round(incl["analyticity.fit_decay_radius"]), "s"),
            "analyticity.fit_usable_ratio": (ratio(counts["analyticity.fit_usable"], fits), "ratio"),
            "analyticity.bound_s": (per_round(incl["analyticity.bound"]), "s"),
            "scenarios.parse_config_s": (per_round(incl["scenarios.parse_config"]), "s"),
            "scenarios.init_s": (per_round(incl["scenarios.init"]), "s"),
            "scenarios.diagnostics_s": (per_round(incl["scenarios.compute_diagnostics"]), "s"),
            "scenarios.io_s": (per_round(incl["scenarios.io"]), "s"),
            "scenarios.bytes_written": (per_round(counts["scenarios.bytes_written"]), "B"),
            "scenarios.bytes_read": (per_round(counts["scenarios.bytes_read"]), "B"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (per_round(self.self_time[layer]), "s")
        return out
