"""The four benchmark workloads: seeded inputs, ops and their checks.

Every op calls instab's public API through attribute lookups on the
``instab`` (or ``instab.cli``) module at call time, so the traced run sees
the calls through its boundary wrappers.  ``build`` makes the inputs from
the seed (this is what set-up time covers); ``Workload.prepare`` computes
the reference values the checks compare against, outside any timing.

Seed 0 runs the inputs exactly as listed; any other seed jitters the
viscosities by a factor in [0.9, 1.1] (each instance stays below its nu0,
since nu0/nu >= 1.49 on all of them), offsets the table grids by a fraction
of their step and seeds the initial data of the time-stepping oracle.  The
frozen growth rates of the acceptance suite are checked at seed 0 only;
under jitter the oracles are checked against each other.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import instab
import instab.cli

P = instab.LatticeVector(3, 1)
NS = instab.ModelKind.NAVIER_STOKES
SG = instab.ModelKind.SECOND_GRADE
NSA = instab.ModelKind.NS_ALPHA
NSV = instab.ModelKind.NS_VOIGT

# (model, alpha, q, nu, frozen lambda): the acceptance suite's oracle triangle
TRIANGLE = [
    (NS, None, (-1, 2), 0.06, 0.223154),
    (NS, None, (0, -2), 0.05, 0.304104),
    (NS, None, (0, 2), 0.05, 0.304104),
    (SG, 0.5, (-1, 2), 0.04, 1.203691),
    (SG, 0.5, (0, -2), 0.04, 1.218864),
    (SG, 0.5, (0, 2), 0.04, 1.218864),
    (NSA, 1.0, (-1, 2), 0.05, 1.114572),
    (NSA, 1.0, (0, -2), 0.04, 1.253582),
    (NSA, 1.0, (0, 2), 0.04, 1.253582),
    (NSV, 0.5, (-1, 2), 0.04, 0.129090),
    (NSV, 0.5, (0, -2), 0.04, 0.134960),
    (NSV, 0.5, (0, 2), 0.04, 0.134960),
]

# acceptance tolerances
FROZEN_TOL = 5e-6
AGREE_REL = 1e-8          # |oracle - lambda| <= AGREE_REL * max(1, lambda)
DET_TOL = 1e-6
RESIDUAL_TOL = 1e-10
SLOPE_REL = 1e-3


@dataclass
class Op:
    """One closed-loop operation: a timed call and an untimed check.

    ``check`` returns None when the output is correct, else a message.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


class Workload:
    """Inputs of one workload; ``prepare`` returns its ops, references computed."""

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self._rng = random.Random(seed)

    def jitter(self, nu: float) -> float:
        return nu if self.seed == 0 else nu * self._rng.uniform(0.9, 1.1)

    def offset(self) -> float:
        return 0.0 if self.seed == 0 else self._rng.random()

    def prepare(self) -> list[Op]:
        raise NotImplementedError


def _params(model, q, nu, alpha=None) -> instab.FlowParams:
    return instab.FlowParams(model=model, p=P, q=instab.LatticeVector(*q),
                             nu=nu, alpha=alpha)


def _agree(lam: float) -> float:
    return AGREE_REL * max(1.0, lam)


def _root(pr, **kwargs) -> float:
    res = instab.find_root(instab.DispersionSpec(pr), **kwargs)
    if not res.found:
        raise RuntimeError(f"reference root not found: {res.diagnostic}")
    return res.lam


def _label(pr) -> str:
    alpha = "" if pr.alpha is None else f",a={pr.alpha:g}"
    return f"{pr.model.value}{alpha},q=({pr.q.x},{pr.q.y})"


def _failures(*pairs) -> str | None:
    bad = [msg for ok, msg in pairs if not ok]
    return "; ".join(bad) if bad else None


# ------------------------------------------------------------------ certify


class Certify(Workload):
    """One op certifies one TRIANGLE instance against every oracle leg."""

    name = "certify"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.cases = [(_params(model, q, self.jitter(nu), alpha), frozen)
                      for model, alpha, q, nu, frozen in TRIANGLE]

    def prepare(self):
        return [Op(f"certify:{_label(pr)}", self._call(pr), self._check(pr, frozen))
                for pr, frozen in self.cases]

    @staticmethod
    def _call(pr):
        def call():
            out = {"nu0": instab.nu0_estimate(pr, tol=1e-4)}
            root = instab.find_root(instab.DispersionSpec(pr), tol=1e-12)
            out["root"] = root
            if not root.found:
                return out
            lam = root.lam
            out["mx"] = instab.max_real_eig(pr, 128)
            if pr.model is not SG:
                # the determinant leg needs a trace-class factor, which the
                # second-grade model's bounded dissipation does not give
                out["det"] = instab.det_I_plus_K(lam, pr, 128).value
                out["det_root"] = instab.det_root(pr, 128, (0.9 * lam, 1.1 * lam),
                                                  tol=0.25 * _agree(lam))
            w = instab.build_w(lam, pr, 64)
            out["w"] = (w.residual, w.sign_ok)
            return out
        return call

    def _check(self, pr, frozen):
        def check(out):
            root = out["root"]
            if not root.found:
                return f"no root: {root.diagnostic}"
            lam, agree = root.lam, _agree(root.lam)
            checks = [
                (pr.nu < out["nu0"], f"nu={pr.nu:g} not below nu0={out['nu0']:g}"),
                (abs(out["mx"] - lam) <= agree, f"|mx-lam|={abs(out['mx'] - lam):.3g}"),
                (out["w"][0] <= RESIDUAL_TOL, f"eigvec residual {out['w'][0]:.3g}"),
                (out["w"][1], "eigvec sign pattern"),
            ]
            if self.seed == 0:
                checks.append((abs(lam - frozen) <= FROZEN_TOL,
                               f"lam={lam!r} vs frozen {frozen}"))
            if "det" in out:
                checks += [
                    (abs(out["det"]) <= DET_TOL, f"|det|={abs(out['det']):.3g}"),
                    (abs(out["det_root"] - lam) <= agree,
                     f"|det_root-lam|={abs(out['det_root'] - lam):.3g}"),
                ]
            return _failures(*checks)
        return check


# ------------------------------------------------------------------- tables


@dataclass
class _Table:
    label: str
    argv: list
    x0: float
    count: int
    column: str                     # column whose sign change is checked
    reference: Callable[[], float]  # the root or threshold it must bracket
    path: Path


def _grid_args(flag: str, lo: float, step: float, count: int) -> list[str]:
    # max sits half a step past the last point so the CLI's floor() keeps count
    return [f"--{flag}-min", repr(lo), f"--{flag}-max",
            repr(lo + (count - 0.5) * step), "--step", repr(step)]


class Tables(Workload):
    """One op is one in-process CLI grid command writing a CSV table."""

    name = "tables"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        ns = _params(NS, (-1, 2), self.jitter(0.06))
        sg = _params(SG, (-1, 2), self.jitter(0.04), 0.5)
        depth10 = _params(NS, (-1, 2), self.jitter(0.06))
        inviscid = _params(NS, (-1, 2), 0.0)
        flow = ["--p", "3,1", "--q=-1,2"]
        self.tables = []

        def add(label, argv, x0, count, column, reference):
            path = scratch / f"{label}.csv"
            self.tables.append(_Table(label, argv + ["--output", str(path)], x0,
                                      count, column, reference, path))

        # grids are 4x coarser than 1001-point tables, so a run gets 20-40
        # samples of each command rather than about 10; with 10, the op times
        # of these 2-thread commands spread by up to 0.2 between runs on a
        # shared 2-core machine
        lo = 0.008 * self.offset()
        add("curve-ns", ["curve", *flow, "--nu", repr(ns.nu),
                         *_grid_args("lambda", lo, 0.008, 251)],
            lo, 251, "dispersion", lambda: _root(ns, tol=1e-12))
        lo = 0.008 * self.offset()
        add("curve-sg", ["curve", "--model", "second-grade", "--alpha", "0.5", *flow,
                         "--nu", repr(sg.nu), *_grid_args("lambda", lo, 0.008, 251)],
            lo, 251, "dispersion", lambda: _root(sg, tol=1e-12))
        lo = 0.0005 + 0.002 * self.offset()
        add("curve-nu", ["curve", "--scan", "nu", *flow,
                         *_grid_args("nu", lo, 0.002, 100)],
            lo, 100, "h-rhs", lambda: instab.nu0_estimate(ns, tol=1e-8))
        lo = 0.005 + 0.004 * self.offset()
        add("det-grid", ["det", *flow, "--nu", repr(ns.nu), "--window", "128",
                         *_grid_args("lambda", lo, 0.004, 249)],
            lo, 249, "det", lambda: _root(ns, tol=1e-12))
        lo = 0.008 * (1.0 + self.offset())
        # no root search exists at nu=0; the finite-section spectrum is the reference
        add("curve-nu0", ["curve", *flow, "--nu", "0",
                          *_grid_args("lambda", lo, 0.008, 250)],
            lo, 250, "dispersion", lambda: instab.max_real_eig(inviscid, 128))
        lo = 0.008 * self.offset()
        add("curve-depth10", ["curve", *flow, "--nu", repr(depth10.nu), "--depth", "10",
                              *_grid_args("lambda", lo, 0.008, 251)],
            lo, 251, "dispersion", lambda: _root(depth10, tol=1e-10, depth=10))

    def prepare(self):
        ops = []
        for table in self.tables:
            ref = table.reference()
            ops.append(Op(f"tables:{table.label}", self._call(table),
                          self._check(table, ref)))
        return ops

    @staticmethod
    def _call(table):
        return lambda: instab.cli.run(table.argv)

    @staticmethod
    def _check(table, ref):
        def check(code):
            if code != 0:
                return f"exit code {code}"
            with open(table.path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            if len(body) != table.count:
                return f"{len(body)} rows, expected {table.count}"
            data = [[float(x) for x in row] for row in body]
            if not all(math.isfinite(x) for row in data for x in row):
                return "non-finite value in table"
            if abs(data[0][0] - table.x0) > 1e-12:
                return f"grid starts at {data[0][0]!r}, expected {table.x0!r}"
            if table.column == "h-rhs":
                ys = [row[header.index("h")] - row[header.index("rhs")] for row in data]
            else:
                ys = [row[header.index(table.column)] for row in data]
            for i in range(len(ys) - 1):
                if (ys[i] > 0.0) != (ys[i + 1] > 0.0):
                    lo, hi = data[i][0], data[i + 1][0]
                    if lo <= ref <= hi:
                        return None
                    return f"first sign change [{lo}, {hi}] misses {ref!r}"
            return "no sign change in table"
        return check


# ----------------------------------------------------------------- dynamics


def _stable_dt(pr, N) -> float:
    diag = instab.build_L(pr, N).diag
    return 1.0 / (4.0 * max(abs(float(d)) for d in diag) + 4.0)


class Dynamics(Workload):
    """One op is one RK4 growth_rate run at N=16 with the stability-bound dt.

    dt follows the jittered nu, so under jitter t_final is set to keep the
    seed-0 step count (within 10% of the listed t_final): every seed then
    does the same work, and run-to-run spread measures the program, not
    the inputs.
    """

    name = "dynamics"
    N = 16

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        cases = [
            (NS, (-1, 2), 0.06, None, 40.0, True),
            (NS, (0, -2), 0.05, None, 40.0, True),
            (NS, (0, 2), 0.05, None, 40.0, True),
            (NSA, (-1, 2), 0.05, 1.0, 40.0, True),
            (NS, (-1, 2), 1.0, None, 5.0, False),
        ]
        self.cases = []
        for model, q, nu, alpha, t_final, unstable in cases:
            steps = math.ceil(t_final / _stable_dt(_params(model, q, nu, alpha), self.N))
            pr = _params(model, q, self.jitter(nu), alpha)
            dt = _stable_dt(pr, self.N)
            if self.seed != 0:
                t_final = (steps - 0.5) * dt
            self.cases.append((pr, t_final, dt, unstable))

    def prepare(self):
        ops = []
        for pr, t_final, dt, unstable in self.cases:
            lam = _root(pr, tol=1e-12) if unstable else None
            ops.append(Op(f"dynamics:{_label(pr)},T={t_final:.3g}",
                          self._call(pr, t_final, dt), self._check(lam)))
        return ops

    def _call(self, pr, t_final, dt):
        seed = self.seed

        def call():
            return instab.growth_rate(pr, self.N, t_final, dt, seed=seed)
        return call

    @staticmethod
    def _check(lam):
        def check(slope):
            if lam is None:
                return None if slope < 0.0 else f"stable case grew: slope {slope!r}"
            rel = abs(slope - lam) / lam
            return None if rel <= SLOPE_REL else f"slope off by {rel:.3g} relative"
        return check


# --------------------------------------------------------------------- deep


class Deep(Workload):
    """Few, very deep continued fractions and large-window oracles."""

    name = "deep"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        # not jittered: from about 1.08e-9 up the root search needs only
        # 2049 tail terms instead of 4097, half the work of this op
        self.vanishing = _params(NS, (-1, 2), 1e-9)
        self.sg1 = _params(SG, (-1, 2), 1.0, 1.0)    # nu is scanned by nu0
        self.sg05 = _params(SG, (-1, 2), 1.0, 0.5)
        self.tail = instab.TailSpec(instab.Direction.FORWARD,
                                    _params(SG, (-1, 2), self.jitter(1e-4), 1.0), 0.0)
        self.windows = [_params(NS, q, self.jitter(nu))
                        for q, nu in (((-1, 2), 0.06), ((0, -2), 0.05), ((0, 2), 0.05))]

    def prepare(self):
        roots = [_root(pr, tol=1e-12) for pr in self.windows]
        ref, lam = self.windows[0], roots[0]
        ops = [
            Op("deep:find_root,nu->0",
               lambda: instab.find_root(instab.DispersionSpec(self.vanishing), tol=1e-12),
               self._near(instab.max_real_eig(self.vanishing, 128), "find_root",
                          lambda res: res.lam if res.found else math.nan)),
            Op("deep:nu0,sg,a=1", lambda: instab.nu0_estimate(self.sg1, tol=1e-6),
               self._threshold(self.sg1, 1e-6)),
            Op("deep:nu0,sg,a=0.5", lambda: instab.nu0_estimate(self.sg05, tol=1e-4),
               self._threshold(self.sg05, 1e-4)),
            Op("deep:eval_adaptive,sg,2^18",
               lambda: instab.eval_adaptive(self.tail, tol=1e-6, max_depth=2 ** 18),
               self._tail_check),
        ]
        for pr, root in zip(self.windows, roots):
            ops.append(Op(f"deep:build_w,N=2000,{_label(pr)}",
                          self._build_w(pr, root), self._eigvec_check))
        ops.append(Op("deep:max_real_eig,N=512",
                      lambda: instab.max_real_eig(ref, 512),
                      self._near(lam, "max_real_eig", float)))
        ops.append(Op("deep:det_root,N=512",
                      lambda: instab.det_root(ref, 512, (0.9 * lam, 1.1 * lam),
                                              tol=0.25 * _agree(lam)),
                      self._near(lam, "det_root", float)))
        return ops

    @staticmethod
    def _build_w(pr, lam):
        def call():
            w = instab.build_w(lam, pr, 2000)
            return w.residual, w.sign_ok
        return call

    @staticmethod
    def _near(ref, what, value_of):
        def check(out):
            got = value_of(out)
            if abs(got - ref) <= _agree(ref):
                return None
            return f"{what} gave {got!r}, oracle {ref!r}"
        return check

    @staticmethod
    def _threshold(pr, tol):
        # independent re-evaluation: h(nu) = value at lambda=0 changes sign
        def h(nu):
            spec = instab.DispersionSpec(dataclasses.replace(pr, nu=nu))
            return instab.value(0.0, spec)

        def check(nu0):
            if h(nu0 - tol) > 0.0 >= h(nu0 + tol):
                return None
            return f"h does not change sign across nu0={nu0!r} +- {tol:g}"
        return check

    @staticmethod
    def _tail_check(br):
        return _failures(
            (br.upper - br.lower <= 1e-6, f"bracket width {br.upper - br.lower:.3g}"),
            (br.lower <= br.value <= br.upper, "value outside its bracket"),
            (0.0 < 1.0 - br.value < 0.05, f"tail {br.value!r} not within 5% below 1"),
        )

    @staticmethod
    def _eigvec_check(out):
        residual, sign_ok = out
        return _failures((residual <= RESIDUAL_TOL, f"residual {residual:.3g}"),
                         (sign_ok, "sign pattern"))


WORKLOADS = {cls.name: cls for cls in (Certify, Tables, Dynamics, Deep)}


def build(name: str, seed: int, scratch: Path) -> Workload:
    """Make a workload's inputs from its seed."""
    return WORKLOADS[name](seed, scratch)
