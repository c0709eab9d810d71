"""Command-line surface: run, norms, radius, taylor, bound.

Exit codes: 0 success, 1 configuration problem (including usage errors),
2 numerical error (blow-up included), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, analyticity, dynamics, norms, scenarios, taylor
from .errors import (PREFIXES, REPORTED, NumericalError, SnapshotError, TruncationError, exit_code,
                     require_integer)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the exit-code contract wants 1
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> tuple:
    """The parsers of this process: the top-level one and a dict of one parser
    per command. parse_args keeps no state between calls."""
    parser = _Parser(prog="bfamlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bfamlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline from a config file")
    p_run.add_argument("--config", required=True)

    p_norms = sub.add_parser("norms", help="print the norms of a snapshot")
    p_norms.add_argument("--snapshot", required=True)
    p_norms.add_argument("--sigma", type=float, required=True)
    p_norms.add_argument("--s", type=float, required=True)
    p_norms.add_argument("--m", type=int, default=2)
    p_norms.add_argument("--j-max", type=int, default=norms.DEFAULT_J_MAX)

    p_radius = sub.add_parser("radius", help="spectral decay fit of a snapshot")
    p_radius.add_argument("--snapshot", required=True)
    p_radius.add_argument("--k-min", type=int, default=analyticity.DEFAULT_FIT_K_MIN)

    p_taylor = sub.add_parser("taylor", help="time-Taylor series report")
    p_taylor.add_argument("--config", required=True)
    p_taylor.add_argument("--order", type=int, default=16)

    p_bound = sub.add_parser("bound", help="strip lower-bound table")
    p_bound.add_argument("--config", required=True)
    return parser, sub.choices


def _read_config(path) -> scenarios.RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise SnapshotError(f"cannot read config {path}: {err}") from err
    return scenarios.parse_config(text)


def _cmd_run(args) -> int:
    cfg = _read_config(args.config)
    result = scenarios.run_scenario(cfg)
    table = result.table
    print(f"run complete: b = {cfg.evolve.b:g}, {len(table['t'])} samples, "
          f"t_final = {table['t'][-1]:g}")
    print(f"outputs in {cfg.output_dir}")
    print(f"final sigma_hat = {table['sigma_hat'][-1]:.6g} "
          f"(fit quality {table['fit_quality'][-1]:.4f}), "
          f"strip bound sigma = {table['km_sigma_bound'][-1]:.6g}")
    final_spectrum = norms._spectrum(result.trajectory.final_state)
    for sigma in cfg.diagnostics.sigma_list:
        value, diverged = norms.gevrey_norm(final_spectrum, sigma, cfg.diagnostics.s)
        note = " (diverged)" if diverged else ""
        print(f"gevrey norm at sigma = {sigma:g}: {value:.6g}{note}")
    return 0


def _cmd_norms(args) -> int:
    snap = scenarios.read_snapshot(args.snapshot)
    # one transform of the snapshot serves every norm below, and one
    # log-sum-exp the gevrey, l2 and sobolev lines
    u = norms._spectrum(scenarios.field_of(snap))
    (value, diverged), (l2, sobolev) = norms._gevrey(u, args.sigma, args.s, (0.0, args.s))
    note = " (diverged: sigma exceeds the resolvable decay rate)" if diverged else ""
    lines = [
        f"snapshot: N = {snap.n_points}, L = {snap.box_length:g}, "
        f"t = {snap.t:g}, b = {snap.b:g}",
        f"l2          = {l2:.12g}",
        f"sobolev s={args.s:g}  = {sobolev:.12g}",
        f"gevrey      = {value:.12g}{note}",
    ]
    try:
        hm = norms.hm_norm(u, args.sigma, args.m, args.j_max) if args.sigma > 0 else None
        lines.append(f"hm m={args.m}      = {hm:.12g}" if hm is not None
                     else "hm          = skipped (requires sigma > 0)")
    except TruncationError as err:
        lines.append(f"hm          = not converged ({err})")
    lines.append(f"km_phi m=32 = {norms.km_phi(u, args.sigma, 32):.12g}")
    try:
        lines.append(f"km_radius   = {norms.km_radius_norm(u, args.sigma, args.j_max):.12g}")
    except TruncationError as err:
        lines.append(f"km_radius   = not converged ({err})")
    # printed once every norm is taken, so a configuration error prints nothing
    print("\n".join(lines))
    return 0


def _cmd_radius(args) -> int:
    snap = scenarios.read_snapshot(args.snapshot)
    fit = analyticity.fit_decay_radius(scenarios.field_of(snap), k_min=args.k_min)
    print(f"sigma_hat   = {fit.sigma_hat:.12g}")
    print(f"fit_quality = {fit.fit_quality:.12g}")
    print(f"band        = modes {fit.band[0]}..{fit.band[1]}")
    print(f"floor_hit   = {fit.floor_hit}")
    return 0


def _cmd_taylor(args) -> int:
    require_integer("--order", args.order, taylor.MIN_ORDER_FOR_RADIUS)
    cfg = _read_config(args.config)
    u0 = scenarios.build_initial(cfg)
    series = taylor.taylor_coeffs(u0, cfg.evolve.b, args.order)
    if series.order < taylor.MIN_ORDER_FOR_RADIUS:
        raise NumericalError(f"the coefficient cap cut the Taylor series at order "
                             f"{series.order}; the radius estimate needs order at least "
                             f"{taylor.MIN_ORDER_FOR_RADIUS}")
    lines = [f"computed {series.order + 1} coefficients (c_0 .. c_{series.order})"]
    rows, dx = series.rows, series.grid.dx
    lines += [f"  |c_{k}|_L2 = {taylor._l2_norm(row, dx):.6g}" for k, row in enumerate(rows)]
    rho = taylor.time_radius_estimate(series)
    lines.append(f"temporal radius estimate = {rho:.6g}")
    t_check = 0.05 if math.isinf(rho) else min(rho / 4.0, 0.05)
    if t_check > 0:
        # the series' own defect t |p' - F(p)|, scaled by |p|: it tests the series
        # against the evolution law, where `run`, which sums this same series, would not
        p = taylor.taylor_eval(series, t_check)
        dp = taylor._series_sum(rows, [t_check], True)[0]
        defect = t_check * taylor._l2_norm(dp - dynamics.rhs_F(p, cfg.evolve.b).samples, dx)
        size = taylor._l2_norm(p.samples, dx)
        lines.append(f"series check at t = {t_check:g}: scaled L2 defect = "
                     f"{defect / size if size > 0 else defect:.3e}")
    print("\n".join(lines))  # once whole, so an error prints no partial report
    return 0


def _cmd_bound(args) -> int:
    result = scenarios.simulate(_read_config(args.config))
    table, bound = result.table, result.bound
    print(f"mu = {bound.mu:.6g}, K = {bound.K_rate:.6g}, gamma = {bound.gamma:.6g}, "
          f"lambda = {bound.lam:.6g}, phi0 = {bound.phi0:.6g}")
    print(f"{'t':>12} {'sigma(t)':>16} {'r(t)':>16}")
    sigma = table["km_sigma_bound"]
    # r(t) = e^{sigma(t)}, 0 where sigma saturated to -inf
    for t, s, r in zip(table["t"].tolist(), sigma.tolist(), np.exp(sigma).tolist()):
        print(f"{t:>12.6g} {s:>16.6g} {r:>16.6g}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "norms": _cmd_norms,
    "radius": _cmd_radius,
    "taylor": _cmd_taylor,
    "bound": _cmd_bound,
}


def _show_warning(message, *_):
    """Print a library warning as one line, without the source line that the
    default display adds; the warning filters still decide what is shown."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None); returns the exit code.

    A command line that names a command is parsed once, by that command's
    parser. Only the rest (no arguments, --help, --version, an unknown
    command) goes through the top-level parser, whose usage line every usage
    error prints. A command's exception of `errors.REPORTED` prints as one
    line, prefixed by `errors.PREFIXES` of its `errors.exit_code`, which main
    returns; an interrupt is not caught, so it ends the process by SIGINT.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    try:
        if argv and argv[0] in commands:
            command, args = argv[0], commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
            command = args.command
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _COMMANDS[command](args)
        except REPORTED as err:
            code = exit_code(err)
            print(f"{PREFIXES[code]}: {err}", file=sys.stderr)
            return code


if __name__ == "__main__":
    sys.exit(main())
