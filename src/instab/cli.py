"""Command-line interface.

Exit codes: 0 success, 2 usage/parameter errors (including non-finite
numbers, orbit classes a computation does not support, grids and classify
disks above _MAX_GRID_POINTS and an --output that cannot be written, checked before
computing), 3 any InstabError: no
convergence, junction mismatch, threshold not found, or NoSignChange
(including a failed root search in root, eigvec and verify).

Output is JSON (``"schema": 1``) or CSV (mandatory header, 17 significant
digits) depending on --format, written with LF line endings to stdout or to
--output by one emitter, _emit.  classify, eigvec, det and curve default to
CSV; root, nu0 and simulate to JSON; verify takes --format text|json (no
CSV) and defaults to text.  det has three exclusive modes: one --lam, a
lambda grid (--lambda-min/--lambda-max/--step), or --root-bracket (with its
--tol); the --lam and grid modes evaluate through spectral.det_grid.
verify renders spectral.certify and decides nothing itself: which legs run,
their bounds and the verdict are certify's.  The CLI states no rule of the
library again: the dispersion pass refuses lambda = nu = 0 (so root, verify,
eigvec without --lam and a curve grid through that point do), while det,
eigvec --lam, simulate and curve on lambda > 0 run at nu = 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .contfrac import DEFAULT_MAX_DEPTH
from .dispersion import DispersionSpec, _found_root, nu0_estimate, value_grid
from .eigensystem import _EIGVEC_MIN_WINDOW, build_w
from .errors import InstabError
from .lattice import LatticeVector, canonical_rep, classify, enumerate_classes, wedge
from .models import FlowParams, ModelKind
from .spectral import (_check_dense_cap, _check_window_cap, _dt_max, _growth_rate, build_L,
                       certify, det_grid, det_root)

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    # every flag has one spelling: a prefix such as --depth must not silently
    # stand for --depth-cap
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse calls error() then sys.exit(2); raise instead so run() owns codes
    def error(self, message):
        raise ValueError(message)


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected integers in {text!r}") from None


def _finite_float(text: str) -> float:
    # the type of every float flag: nan or inf is a usage error, not an input
    # to chase to the depth cap
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _csv_lines(columns: list) -> str:
    """The CSV lines of the table with these columns, each ending in LF.

    Each column picks its conversion once, by the types it holds: %.17g for
    float and np.float64, %d for int and %s otherwise, where a float cell of a
    mixed column is written with %.17g first.  All cells then fill one
    template in one % operation.
    """
    specs, cells = [], []
    for column in columns:
        kinds = set(map(type, column))
        if kinds <= {float, np.float64}:
            specs.append("%.17g")
        elif kinds <= {int}:
            specs.append("%d")
        else:
            specs.append("%s")
            column = ["%.17g" % x if isinstance(x, float) else x for x in column]
        cells.append(column)
    rows = len(cells[0]) if cells else 0
    return ((",".join(specs) + "\n") * rows) % tuple(itertools.chain.from_iterable(zip(*cells)))


def _emit(args, fields: dict, header: list[str], columns: list,
          text: str | None = None) -> None:
    """Write one result in the chosen --format to stdout or --output, LF endings.

    JSON is ``{"schema": 1, **fields}``; CSV is ``header`` then the table of
    ``columns``, one list or tuple per header name, all of one length, floats
    at 17 significant digits; ``text`` is verify's plain-text report.
    """
    if args.format == "json":
        body = json.dumps({"schema": 1, **fields}, indent=2, allow_nan=False) + "\n"
    elif text is not None:
        body = text
    else:
        body = ",".join(header) + "\n" + _csv_lines(columns)
    if args.output is None:
        sys.stdout.write(body)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
    except OSError as exc:
        raise ValueError(f"cannot write --output {args.output!r}: {exc.strerror}") from None


def _params_from(args, *, require_nu: bool = True) -> FlowParams:
    nu = args.nu
    if nu is None:
        if require_nu:
            raise ValueError("--nu is required for this subcommand")
        nu = 1.0  # placeholder; the computation scans nu itself
    return FlowParams(
        model=ModelKind(args.model),
        p=LatticeVector(*_parse_pair(args.p)),
        q=LatticeVector(*_parse_pair(args.q)),
        nu=nu,
        alpha=args.alpha,
        gamma=args.gamma,
    )


_MAX_GRID_POINTS = 100_000


def _grid(lo: float | None, hi: float | None, step: float | None,
          what: str) -> list[float]:
    if lo is None or hi is None or step is None:
        raise ValueError(f"{what} grid needs --{what}-min, --{what}-max and --step")
    if step <= 0:
        raise ValueError("--step must be positive")
    span = (hi - lo) / step
    if not span < _MAX_GRID_POINTS:  # an infinite span too; before the list is built
        raise ValueError(f"{what} grid has too many points for --step {step:g} "
                         f"(at most {_MAX_GRID_POINTS})")
    count = int(math.floor(span + 1e-12)) + 1
    if count < 1:
        raise ValueError(f"empty {what} grid: max is below min")
    return [lo + i * step for i in range(count)]


def _flow_meta(params: FlowParams) -> dict:
    meta = {
        "model": params.model.value,
        "p": [params.p.x, params.p.y],
        "q": [params.q.x, params.q.y],
        "class": params.point_class.value,
        "nu": params.nu,
    }
    if params.alpha is not None:
        meta["alpha"] = params.alpha
    if params.gamma is not None:
        meta["gamma"] = params.gamma
    return meta


# ---------------------------------------------------------------- subcommands


def _cmd_classify(args) -> int:
    p = LatticeVector(*_parse_pair(args.p))
    if (args.q is None) == (args.radius is None):
        raise ValueError("classify needs exactly one of --q or --radius")
    if args.radius is not None:
        # enumerate_classes' scan; it refuses a negative radius before scanning
        if (2 * int(max(args.radius, 0.0)) + 3) ** 2 > _MAX_GRID_POINTS:
            raise ValueError(f"--radius {args.radius:g} scans more than "
                             f"{_MAX_GRID_POINTS} lattice points")
        orbits = enumerate_classes(p, args.radius)
        _emit(args, {
            "p": [p.x, p.y],
            "radius": args.radius,
            "orbits": [
                {"rep": [rep.rep.x, rep.rep.y], "class": cls.value}
                for rep, cls in orbits
            ],
        }, ["rep_x", "rep_y", "class"],
            [[rep.rep.x for rep, _ in orbits], [rep.rep.y for rep, _ in orbits],
             [cls.value for _, cls in orbits]])
        return 0
    q = LatticeVector(*_parse_pair(args.q))
    rep = canonical_rep(q, p)
    cls = classify(q, p)
    _emit(args, {
        "p": [p.x, p.y],
        "q": [q.x, q.y],
        "rep": [rep.rep.x, rep.rep.y],
        "shift": rep.shift,
        "wedge": wedge(p, q),
        "class": cls.value,
    }, ["q_x", "q_y", "rep_x", "rep_y", "shift", "class"],
        [[x] for x in (q.x, q.y, rep.rep.x, rep.rep.y, rep.shift, cls.value)])
    return 0


def _cmd_root(args) -> int:
    params = _params_from(args)
    spec = DispersionSpec(params)
    result = _found_root(spec, tol=args.tol, lambda_cap=args.lambda_cap,
                         depth=args.depth, max_depth=args.depth_cap)
    _emit(args, {**_flow_meta(params),
                 "lambda": result.lam,
                 "bracket": list(result.bracket),
                 "residual": result.dispersion_residual,
                 "cf_depth": result.cf_depth},
          ["lambda", "bracket_lo", "bracket_hi", "residual", "cf_depth"],
          [[x] for x in (result.lam, *result.bracket, result.dispersion_residual,
                         result.cf_depth)])
    return 0


def _cmd_nu0(args) -> int:
    if args.nu is not None:
        raise ValueError("nu0 solves for nu and takes no --nu")
    params = _params_from(args, require_nu=False)
    nu0 = nu0_estimate(params, tol=args.tol, nu_cap=args.nu_cap,
                       max_depth=args.depth_cap)
    meta = _flow_meta(params)
    del meta["nu"]  # nu is the unknown here, not an input
    _emit(args, {**meta, "nu0": nu0}, ["nu0"], [[nu0]])
    return 0


def _cmd_eigvec(args) -> int:
    _check_window_cap(args.window, minimum=_EIGVEC_MIN_WINDOW)  # refused before the root search
    params = _params_from(args)
    spec = DispersionSpec(params)
    lam = args.lam
    if lam is None:
        lam = _found_root(spec, tol=min(args.tol, 1e-10), max_depth=args.depth_cap).lam
    result = build_w(lam, params, args.window, tol=args.tol,
                     match_tol=args.match_tol, max_depth=args.depth_cap)
    ns = sorted(result.w)
    _emit(args, {
        **_flow_meta(params),
        "lambda": result.lam,
        "window": result.window,
        "residual": result.residual,
        # NaN when neither side has enough live entries to fit
        "decay_rate": result.decay_rate if math.isfinite(result.decay_rate) else None,
        "decay_r2": result.decay_r2 if math.isfinite(result.decay_r2) else None,
        "sign_ok": result.sign_ok,
        "n": ns,
        "w": [result.w[n] for n in ns],
    }, ["n", "w"], [ns, [result.w[n] for n in ns]])
    return 0


def _cmd_det(args) -> int:
    N = args.window
    _check_window_cap(N)  # refused before the section is built
    params = _params_from(args)
    grid_flags = (args.lambda_min, args.lambda_max, args.step)
    if args.root_bracket is not None:
        if args.lam is not None or any(x is not None for x in grid_flags):
            raise ValueError("--root-bracket excludes --lam and a lambda grid")
        parts = args.root_bracket.split(",")
        if len(parts) != 2:
            raise ValueError("--root-bracket expects lo,hi")
        try:
            lo, hi = _finite_float(parts[0]), _finite_float(parts[1])
        except argparse.ArgumentTypeError:
            raise ValueError("--root-bracket expects finite numbers lo,hi") from None
        root = det_root(params, N, (lo, hi), tol=1e-10 if args.tol is None else args.tol)
        _emit(args, {**_flow_meta(params), "det_root": root, "N": N},
              ["det_root", "n"], [[root], [N]])
        return 0
    if args.tol is not None:
        raise ValueError("--tol belongs to --root-bracket")
    if args.lam is not None:
        if any(x is not None for x in grid_flags):
            raise ValueError("pass either --lam or a lambda grid, not both")
        grid = [args.lam]
    else:
        grid = _grid(*grid_flags, "lambda")
    header = ["lambda", "det", "n"]
    columns = [grid, det_grid(grid, params, N).tolist(), [N] * len(grid)]
    _emit(args, {**_flow_meta(params), "columns": header,
                 "rows": [list(r) for r in zip(*columns)]}, header, columns)
    return 0


def _cmd_simulate(args) -> int:
    params = _params_from(args)
    _check_dense_cap(args.window)  # before build_L allocates the bands
    op = build_L(params, args.window)
    dt_max = _dt_max(op)
    dt = dt_max if args.dt is None else args.dt
    slope = _growth_rate(op, dt_max, args.t_final, dt, args.seed)
    _emit(args, {**_flow_meta(params), "slope": slope, "N": args.window,
                 "t_final": args.t_final, "dt": dt, "seed": args.seed},
          ["slope", "n", "t_final", "dt", "seed"],
          [[x] for x in (slope, args.window, args.t_final, dt, args.seed)])
    return 0


def _cmd_curve(args) -> int:
    # a nu scan supplies its own viscosities: --nu is read by a lambda scan only
    params = _params_from(args, require_nu=(args.scan == "lambda"))
    spec = DispersionSpec(params)
    opts = dict(tol=args.tol, depth=args.depth, max_depth=args.depth_cap)
    meta = _flow_meta(params)

    if args.scan == "lambda":
        if args.nu_min is not None or args.nu_max is not None:
            raise ValueError("--nu-min/--nu-max belong to --scan nu, not --scan lambda")
        lo = 0.0 if args.lambda_min is None else args.lambda_min
        hi = 2.0 if args.lambda_max is None else args.lambda_max
        grid = _grid(lo, hi, args.step, "lambda")
        v, a0 = value_grid(spec, grid, **opts)
        header, values = ["lambda", "minus_a0", "f_plus_g", "dispersion"], [-a0, v - a0, v]
    else:
        if any(x is not None for x in (args.nu, args.lambda_min, args.lambda_max)):
            raise ValueError("--nu, --lambda-min and --lambda-max belong to --scan lambda, "
                             "not --scan nu")
        grid = _grid(args.nu_min, args.nu_max, args.step, "nu")
        del meta["nu"]  # nu is the scan variable, not an input
        v, a0 = value_grid(spec, 0.0, grid, **opts)
        header, values = ["nu", "h", "rhs"], [v - a0, -a0]

    columns = [grid, *(c.tolist() for c in values)]
    _emit(args, {**meta, "columns": header, "rows": [list(r) for r in zip(*columns)]},
          header, columns)
    return 0


def _cmd_verify(args) -> int:
    params = _params_from(args)
    c = certify(params, args.window, args.agree_tol, max_depth=args.depth_cap)
    verdict = {True: "PASS", False: "FAIL"}

    def leg(name: str, lam: float, ok: bool) -> str:
        return (f"{name:<13} = {lam:.17g}   |diff| = {abs(lam - c.lam_cf):.3g}"
                f" <= {c.agree:.3g} : {verdict[ok]}")

    lines = [f"lambda_cf     = {c.lam_cf:.17g}", leg("lambda_matrix", c.lam_matrix, c.ok_matrix)]
    if c.det_at_root is None:
        lines.append("det(I+K)      : skipped (band entries do not decay "
                     "for this model; determinant leg undefined)")
    else:
        lines += [f"det(I+K)      = {c.det_at_root:.3g}   sign change within {c.agree:.3g}:"
                  f" {c.det_lo:.3g} to {c.det_hi:.3g} : {verdict[c.ok_det_value]}",
                  leg("det_root", c.det_root, c.ok_det_root) if c.det_root is not None
                  else "det_root      : no sign change of det(I+K) on its bracket : FAIL"]
    lines.append(f"VERIFY: {verdict[c.passed]}")
    _emit(args, {**_flow_meta(params), "N": args.window, "lambda_cf": c.lam_cf,
                 "lambda_matrix": c.lam_matrix, "det_at_root": c.det_at_root,
                 "det_root": c.det_root, "agree_tol": c.agree, "pass": c.passed},
          [], [], text="\n".join(lines) + "\n")
    return 0 if c.passed else 3


# -------------------------------------------------------------------- parser


def _add_flow_args(sp) -> None:
    sp.add_argument("--model", choices=[k.value for k in ModelKind], default="ns")
    sp.add_argument("--p", required=True, metavar="X,Y",
                    help="forcing wavevector (integers, e.g. 3,1)")
    sp.add_argument("--q", required=True, metavar="X,Y",
                    help="perturbation wavevector; use --q=-1,2 for negatives")
    sp.add_argument("--nu", type=_finite_float, default=None, help="viscosity")
    sp.add_argument("--alpha", type=_finite_float, default=None,
                    help="regularization length (required for non-ns models)")
    sp.add_argument("--gamma", type=_finite_float, default=None,
                    help="explicit steady amplitude (default: normalized scale)")


def _add_output_args(sp, default_format: str) -> None:
    sp.add_argument("--format", choices=["json", "csv"], default=default_format)
    sp.add_argument("--output", default=None, metavar="PATH",
                    help="write to a file instead of stdout")


def _add_depth_args(sp) -> None:
    sp.add_argument("--depth-cap", type=int, default=DEFAULT_MAX_DEPTH,
                    help=f"adaptive depth cap (default {DEFAULT_MAX_DEPTH})")


@functools.cache  # one per process: parse_args leaves the parser as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="instab",
                     description="Detect and certify linear instability of "
                                 "unidirectional flows via continued fractions, "
                                 "finite sections, determinants and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", parents=[], help="orbit classification")
    sp.add_argument("--p", required=True, metavar="X,Y")
    sp.add_argument("--q", default=None, metavar="X,Y")
    sp.add_argument("--radius", type=_finite_float, default=None,
                    help="classify every orbit with a representative in this disk")
    _add_output_args(sp, "csv")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("root", help="positive dispersion root (growth rate)")
    _add_flow_args(sp)
    sp.add_argument("--tol", type=_finite_float, default=1e-10)
    sp.add_argument("--lambda-cap", type=_finite_float, default=None)
    sp.add_argument("--depth", type=int, default=None,
                    help="fixed truncation depth (default: adaptive)")
    _add_depth_args(sp)
    _add_output_args(sp, "json")
    sp.set_defaults(func=_cmd_root)

    sp = sub.add_parser("nu0", help="critical viscosity: the sign change of the "
                                   "dispersion value at lambda=0")
    _add_flow_args(sp)
    sp.add_argument("--tol", type=_finite_float, default=1e-8)
    sp.add_argument("--nu-cap", type=_finite_float, default=100.0)
    _add_depth_args(sp)
    _add_output_args(sp, "json")
    sp.set_defaults(func=_cmd_nu0)

    sp = sub.add_parser("eigvec", help="certified eigenvector on a window")
    _add_flow_args(sp)
    sp.add_argument("--lam", type=_finite_float, default=None,
                    help="eigenvalue candidate (default: solve for the root first)")
    sp.add_argument("--window", "-N", type=int, default=64)
    sp.add_argument("--tol", type=_finite_float, default=1e-12)
    sp.add_argument("--match-tol", type=_finite_float, default=None)
    _add_depth_args(sp)
    _add_output_args(sp, "csv")
    sp.set_defaults(func=_cmd_eigvec)

    sp = sub.add_parser("det", help="perturbation determinant samples or root")
    _add_flow_args(sp)
    sp.add_argument("--lam", type=_finite_float, default=None)
    sp.add_argument("--lambda-min", type=_finite_float, default=None)
    sp.add_argument("--lambda-max", type=_finite_float, default=None)
    sp.add_argument("--step", type=_finite_float, default=None)
    sp.add_argument("--root-bracket", default=None, metavar="LO,HI",
                    help="refine the determinant zero inside this bracket")
    sp.add_argument("--window", "-N", type=int, default=128)
    sp.add_argument("--tol", type=_finite_float, default=None,
                    help="bracket width tolerance of --root-bracket (default 1e-10)")
    _add_output_args(sp, "csv")
    sp.set_defaults(func=_cmd_det)

    sp = sub.add_parser("simulate", help="growth rate from time integration")
    _add_flow_args(sp)
    sp.add_argument("--window", "-N", type=int, default=16)
    sp.add_argument("--t-final", type=_finite_float, default=40.0)
    sp.add_argument("--dt", type=_finite_float, default=None,
                    help="time step (default: the explicit stability bound)")
    sp.add_argument("--seed", type=int, default=0)
    _add_output_args(sp, "json")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("curve", help="dispersion tables over a lambda or nu grid")
    _add_flow_args(sp)
    sp.add_argument("--scan", choices=["lambda", "nu"], default="lambda")
    sp.add_argument("--lambda-min", type=_finite_float, default=None)
    sp.add_argument("--lambda-max", type=_finite_float, default=None)
    sp.add_argument("--nu-min", type=_finite_float, default=None)
    sp.add_argument("--nu-max", type=_finite_float, default=None)
    sp.add_argument("--step", type=_finite_float, default=0.01)
    sp.add_argument("--tol", type=_finite_float, default=1e-10)
    sp.add_argument("--depth", type=int, default=None,
                    help="fixed truncation depth (default: adaptive)")
    _add_depth_args(sp)
    _add_output_args(sp, "csv")
    sp.set_defaults(func=_cmd_curve)

    sp = sub.add_parser("verify", help="cross-check a root against matrix and determinant oracles")
    _add_flow_args(sp)
    sp.add_argument("--window", "-N", type=int, default=128)
    sp.add_argument("--agree-tol", type=_finite_float, default=1e-8,
                    help="bound on each oracle's distance to the root, times max(1, root); "
                         "the root search runs to min(1e-10, agree-tol/4) (default 1e-8)")
    _add_depth_args(sp)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--output", default=None, metavar="PATH")
    sp.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
        out_dir = os.path.dirname(args.output or "") or "."
        if args.output is not None and not os.access(out_dir, os.W_OK):
            # refused before computing, not after
            raise ValueError(f"cannot write --output {args.output!r}: {out_dir!r} "
                             f"is not a writable directory")
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except InstabError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
