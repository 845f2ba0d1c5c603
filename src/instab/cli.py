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
from .dispersion import DispersionSpec, RootResult, find_root, nu0_estimate, value_grid
from .eigensystem import build_w
from .errors import InstabError, NoSignChange
from .lattice import LatticeVector, canonical_rep, classify, enumerate_classes, wedge
from .models import FlowParams, ModelKind
from .spectral import (_check_dense_cap, _check_window_cap, _dt_max, build_L, det_I_plus_K,
                       det_grid, det_root, growth_rate, max_real_eig)

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    # every flag has one spelling: a prefix such as --depth must not silently
    # stand for --depth-cap
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse calls error() then sys.exit(2); raise instead so run() owns codes
    def error(self, message):
        raise ValueError(message)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


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
    float and np.float64 (what _fmt writes for them), %d for int and _fmt's
    string otherwise.  All cells then fill one template in one % operation.
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
            column = [_fmt(x) for x in column]
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


def _require_positive_nu(params: FlowParams) -> None:
    if params.nu == 0:
        raise ValueError("nu=0 (no dissipation) is supported only by `curve`")


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


def _found_root(spec: DispersionSpec, args, **kwargs) -> RootResult:
    # the one search-or-fail path of root, eigvec and verify
    result = find_root(spec, max_depth=_max_depth(args), **kwargs)
    if not result.found:
        raise NoSignChange(result.diagnostic.removeprefix("NoSignChange: "))
    return result


def _max_depth(args) -> int:
    if args.depth_cap < 2:
        raise ValueError("--depth-cap must be at least 2")
    return args.depth_cap


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
        if args.radius <= 0:
            raise ValueError("--radius must be positive")
        if (2 * int(args.radius) + 3) ** 2 > _MAX_GRID_POINTS:  # enumerate_classes' scan
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
    _require_positive_nu(params)
    spec = DispersionSpec(params)
    result = _found_root(spec, args, tol=args.tol, lambda_cap=args.lambda_cap,
                         depth=args.depth)
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
                       max_depth=_max_depth(args))
    meta = _flow_meta(params)
    del meta["nu"]  # nu is the unknown here, not an input
    _emit(args, {**meta, "nu0": nu0}, ["nu0"], [[nu0]])
    return 0


def _cmd_eigvec(args) -> int:
    _check_window_cap(args.window, minimum=3)  # refused before the root search
    params = _params_from(args)
    _require_positive_nu(params)
    spec = DispersionSpec(params)
    lam = args.lam
    if lam is None:
        lam = _found_root(spec, args, tol=min(args.tol, 1e-10)).lam
    result = build_w(lam, params, args.window, tol=args.tol,
                     match_tol=args.match_tol, max_depth=_max_depth(args))
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
    _require_positive_nu(params)
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
    _require_positive_nu(params)
    dt = args.dt
    if dt is None:
        _check_dense_cap(args.window)  # before build_L allocates the bands
        dt = _dt_max(build_L(params, args.window))
    slope = growth_rate(params, args.window, args.t_final, dt, seed=args.seed)
    _emit(args, {**_flow_meta(params), "slope": slope, "N": args.window,
                 "t_final": args.t_final, "dt": dt, "seed": args.seed},
          ["slope", "n", "t_final", "dt", "seed"],
          [[x] for x in (slope, args.window, args.t_final, dt, args.seed)])
    return 0


def _cmd_curve(args) -> int:
    # a nu scan supplies its own viscosities: --nu is read by a lambda scan only
    params = _params_from(args, require_nu=(args.scan == "lambda"))
    spec = DispersionSpec(params)
    opts = dict(tol=args.tol, depth=args.depth, max_depth=_max_depth(args))
    meta = _flow_meta(params)

    if args.scan == "lambda":
        if args.nu_min is not None or args.nu_max is not None:
            raise ValueError("--nu-min/--nu-max belong to --scan nu, not --scan lambda")
        lo = 0.0 if args.lambda_min is None else args.lambda_min
        hi = 2.0 if args.lambda_max is None else args.lambda_max
        grid = _grid(lo, hi, args.step, "lambda")
        if params.nu == 0 and grid[0] <= 0:
            raise ValueError("nu=0 needs a strictly positive lambda grid "
                             "(the recurrence degenerates at lambda=0)")
        v, a0 = value_grid(spec, grid, **opts)
        header, values = ["lambda", "minus_a0", "f_plus_g", "dispersion"], [-a0, v - a0, v]
    else:
        if any(x is not None for x in (args.nu, args.lambda_min, args.lambda_max)):
            raise ValueError("--nu, --lambda-min and --lambda-max belong to --scan lambda, "
                             "not --scan nu")
        grid = _grid(args.nu_min, args.nu_max, args.step, "nu")
        if grid[0] <= 0:
            raise ValueError("the nu grid must be strictly positive")
        del meta["nu"]  # nu is the scan variable, not an input
        v, a0 = value_grid(spec, 0.0, grid, **opts)
        header, values = ["nu", "h", "rhs"], [v - a0, -a0]

    columns = [grid, *(c.tolist() for c in values)]
    _emit(args, {**meta, "columns": header, "rows": [list(r) for r in zip(*columns)]},
          header, columns)
    return 0


def _cmd_verify(args) -> int:
    params = _params_from(args)
    _require_positive_nu(params)
    spec = DispersionSpec(params)
    N = args.window
    _check_dense_cap(N)  # refused before the root search; the dense solve waits for a root
    # the root runs to a quarter of the agreement bound, as det_root does below
    lam_cf = _found_root(spec, args, tol=min(1e-10, 0.25 * args.agree_tol)).lam
    lam_mx = max_real_eig(params, N)
    agree = args.agree_tol * max(1.0, lam_cf)
    ok_mx = abs(lam_mx - lam_cf) <= agree
    lines = [
        f"lambda_cf     = {_fmt(lam_cf)}",
        f"lambda_matrix = {_fmt(lam_mx)}   |diff| = {abs(lam_mx - lam_cf):.3g}"
        f" <= {agree:.3g} : {'PASS' if ok_mx else 'FAIL'}",
    ]

    # The determinant leg needs a trace-class K factor: its entries are
    # k_n*rho ~ rho_n/(nu*d_n).  For the second-grade model d_n is bounded
    # and rho_n -> 1, so the band entries do not decay and the sectioned
    # determinant diverges with N; the leg is skipped there.
    if params.model is not ModelKind.SECOND_GRADE:
        det_at = det_I_plus_K(lam_cf, params, N).value
        ok_det_val = abs(det_at) <= args.det_tol
        lam_det = det_root(params, N, (0.9 * lam_cf, 1.1 * lam_cf), tol=0.25 * agree)
        ok_det_root = abs(lam_det - lam_cf) <= agree
        lines += [
            f"det(I+K)      = {det_at:.3g}   |.| <= {args.det_tol:.3g} :"
            f" {'PASS' if ok_det_val else 'FAIL'}",
            f"det_root      = {_fmt(lam_det)}   |diff| = {abs(lam_det - lam_cf):.3g}"
            f" <= {agree:.3g} : {'PASS' if ok_det_root else 'FAIL'}",
        ]
    else:
        det_at = lam_det = None
        ok_det_val = ok_det_root = True
        lines.append("det(I+K)      : skipped (band entries do not decay "
                     "for this model; determinant leg undefined)")

    passed = ok_mx and ok_det_val and ok_det_root
    lines.append(f"VERIFY: {'PASS' if passed else 'FAIL'}")
    _emit(args, {
        **_flow_meta(params), "N": N,
        "lambda_cf": lam_cf,
        "lambda_matrix": lam_mx,
        "det_at_root": det_at,
        "det_root": lam_det,
        "agree_tol": agree,
        "det_tol": args.det_tol,
        "pass": passed,
    }, [], [], text="\n".join(lines) + "\n")
    return 0 if passed else 3


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
    sp.add_argument("--det-tol", type=_finite_float, default=1e-6,
                    help="bound on |det(I+K)| at the root (default 1e-6)")
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
