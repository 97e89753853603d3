"""Command-line interface: kernel evaluation, boundary-data extension,
functional computation, and verification runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 data error.
Standard output carries only data rows; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import warnings

import numpy as np

from . import functionals as fn
from . import harmonic as hm
from . import kernels as ker
from . import verify as vf
from .config import RunConfig
from .errors import (DataFileError, HyperharmError, NonConvergence,
                     TruncationWarning)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperharm",
        description="Hyperbolic-harmonic kernels, extensions, functionals, "
                    "and verification suites on the unit ball.")
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", help="emit kernel values over the angle "
                                       "grid as t,value rows")
    pk.add_argument("--kind", required=True,
                    choices=("euclid", "hyp", "hyp-delta"))
    pk.add_argument("--n", type=int, default=3)
    pk.add_argument("--r", type=float, required=True)
    pk.add_argument("--delta", type=float, default=None)
    pk.add_argument("--grid-degree", type=int, default=200,
                    help="number of angle intervals on [-1, 1]")

    pe = sub.add_parser("extend", help="extend boundary data and write "
                                       "r,x1..xn,u samples")
    pe.add_argument("--data", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--grid-degree", type=int, default=12)
    pe.add_argument("--ladder-depth", type=int, default=8)
    pe.add_argument("--delta", type=float, default=1.0)

    pf = sub.add_parser("functional", help="compute a functional over the "
                                           "boundary grid")
    pf.add_argument("--kind", required=True,
                    choices=("M", "Malpha", "S", "SN", "g", "gN"))
    pf.add_argument("--data", required=True)
    pf.add_argument("--out", required=True)
    pf.add_argument("--alpha", type=float, default=0.5)
    pf.add_argument("--p", type=float, default=1.0)
    pf.add_argument("--grid-degree", type=int, default=48)
    pf.add_argument("--ladder-depth", type=int, default=18)

    pv = sub.add_parser("verify", help="run verification suites and write "
                                       "reports")
    pv.add_argument("suites", nargs="+",
                    help="suite names, or 'all'")
    pv.add_argument("--config", default=None)
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--lmax", type=int, default=None)
    pv.add_argument("--alpha", type=float, default=None)
    pv.add_argument("--p", type=float, action="append", default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--out", default=None)
    return parser


def cmd_kernel(args) -> int:
    if args.n < 3:
        raise UsageError("dimension must be at least 3")
    if not 0.0 <= args.r < 1.0:
        raise UsageError("radius must lie in [0, 1)")
    if args.grid_degree < 1:
        raise UsageError("grid degree must be positive")
    t = np.linspace(-1.0, 1.0, args.grid_degree + 1)
    if args.kind == "euclid":
        vals = ker.poisson_euclid_rt(args.n, args.r, t)
    elif args.kind == "hyp":
        vals = ker.poisson_hyp_rt(args.n, args.r, t)
    else:
        delta = 1.0 if args.delta is None else args.delta
        if not 0.0 <= delta <= 1.0:
            raise UsageError("delta must lie in [0, 1]")
        # a series cut at its degree cap is wrong near the boundary (it can
        # even turn negative), so its rows are refused, not printed
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            try:
                vals = ker.poisson_hyp_series_rt(args.n, args.r, t, delta)
            except TruncationWarning as exc:
                raise NonConvergence(
                    f"the kernel series did not converge within "
                    f"{ker.SERIES_CAP} degrees at r = {args.r:g}; use a "
                    f"smaller radius") from exc
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["t", "value"])
    for ti, vi in zip(np.atleast_1d(t), np.atleast_1d(vals)):
        w.writerow([f"{ti:.17g}", f"{vi:.17g}"])
    sys.stdout.write(out.getvalue())
    return EXIT_OK


def _require_finite(values, what: str) -> None:
    """Refuse a result that overflowed, before anything is written."""
    if not np.all(np.isfinite(values)):
        raise DataFileError(f"{what} is not finite; the boundary data is "
                            f"too large to evaluate")


def _grid(args, u) -> fn.FunctionalGrid:
    """The boundary grid and dyadic ladder of extend and functional, from
    their --grid-degree and --ladder-depth flags."""
    if args.grid_degree < 2:
        raise UsageError("grid degree must be at least 2")
    # from depth 54 on, the ladder top 1 - 2^-depth rounds to 1.0
    if not 1 <= args.ladder_depth <= 53:
        raise UsageError("ladder depth must lie in [1, 53]")
    # sph3 data has no pole, so it is sampled on the full n = 3 grid
    return fn.functional_grid(u.n, args.grid_degree, args.ladder_depth,
                              pole=u.pole, full=u.kind == "sph3")


def cmd_extend(args) -> int:
    if not 0.0 < args.delta <= 1.0:
        raise UsageError("delta must lie in (0, 1]")
    u = hm.extend(hm.load_boundary_data(args.data), delta=args.delta)
    grid = _grid(args, u)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["r"] + [f"x{i + 1}" for i in range(u.n)] + ["u"])
    for r in grid.radii:
        pts = r * grid.boundary.nodes
        # overflow shows as a non-finite value, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            vals = u.eval_points(pts)
        _require_finite(vals, "the extension")
        for xi, vi in zip(pts, vals):
            w.writerow([f"{r:.17g}"] + [f"{c:.17g}" for c in xi]
                       + [f"{vi:.17g}"])
    fn.write_atomic(args.out, buf.getvalue())
    return EXIT_OK


def cmd_functional(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise UsageError("aperture must lie in (0, 1)")
    if not 0.0 < args.p < np.inf:
        raise UsageError("p must be finite and positive")
    u = hm.extend(hm.load_boundary_data(args.data))
    grid = _grid(args, u)
    # overflow shows as a non-finite value, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if args.kind == "M":
            result = fn.radial_max(u, grid)
        elif args.kind == "Malpha":
            result = fn.cone_max(u, args.alpha, grid)
        elif args.kind == "S":
            result = fn.area_integral(u, args.alpha, grid)
        elif args.kind == "SN":
            result = fn.area_integral(u, args.alpha, grid, radial_only=True)
        elif args.kind == "g":
            result = fn.littlewood_paley_g(u, grid)
        else:
            result = fn.littlewood_paley_g(u, grid, radial_only=True)
        norm = result.quasinorm(args.p)
    _require_finite(np.append(result.values, norm),
                    f"the {args.kind} functional")
    result.write_csv(args.out)
    print("norm,p,value")
    print(f"{args.kind},{args.p:.17g},{norm:.17g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    base = RunConfig.load(args.config) if args.config else RunConfig()
    flags = dict(n=args.n, lmax=args.lmax, alpha=args.alpha,
                 ps=tuple(args.p) if args.p else None, seed=args.seed,
                 out_dir=args.out)
    try:
        # flags override the file's values
        config = dataclasses.replace(
            base, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    names = list(vf.SUITES) if args.suites == ["all"] else args.suites
    unknown = [s for s in names if s not in vf.SUITES]
    if unknown:
        raise UsageError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"available: {', '.join(vf.SUITES)}, all")
    # an unusable output directory fails here, before any suite runs
    os.makedirs(config.out_dir, exist_ok=True)
    reports = [vf.run_suite(name, config) for name in names]
    csv_path = vf.write_reports(reports, config.out_dir)
    print(csv_path)
    failed = [r.suite for r in reports if r.status == "fail"]
    if failed:
        print(f"failed suites: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


_COMMANDS = {
    "kernel": cmd_kernel,
    "extend": cmd_extend,
    "functional": cmd_functional,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HyperharmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
