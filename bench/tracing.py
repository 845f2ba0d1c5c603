"""Boundary tracing for the traced benchmark run.

The tracer replaces the module-global names that each consumer module of
``instab`` imports (for example ``instab.dispersion.eval_adaptive`` and
``instab.cli.det_I_plus_K``) with wrappers that record a span per call:
name, start, end, parent span and the op the call belongs to.  Nothing in
``src/`` is changed; ``uninstall()`` puts every original back.

Aggregates are kept under a lock because the CLI runs grid rows on its own
thread pool.  Busy time of a layer is the summed duration of its outermost
spans, so on the pool it is summed across threads and may exceed wall time.
Self time of a span is its duration minus the union of its children's
intervals.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import instab
import instab.cli
import instab.contfrac
import instab.dispersion
import instab.eigensystem
import instab.models
import instab.spectral

# Spans kept for the written trace; aggregates always cover every span.
MAX_KEPT_SPANS = 100_000


class _Frame:
    __slots__ = ("sid", "name", "parent", "op", "t0", "children")

    def __init__(self, sid, name, parent, op, t0):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.t0 = t0
        self.children = []


def _union_length(intervals) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _bind(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        return sig.bind(*args, **kwargs).arguments

    return bound


class Tracer:
    """Installs boundary wrappers and accumulates per-layer aggregates."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched = []  # (owner, attr, original)
        self.missing = []   # boundaries absent from this version of instab
        self.spans = []
        self.dropped_spans = 0
        self.reset()

    # ------------------------------------------------------------ aggregates

    def reset(self) -> None:
        with self._lock:
            self.calls = defaultdict(int)
            self.busy = defaultdict(float)
            self.self_time = defaultdict(float)
            self.counters = defaultdict(int)
            self.ok_busy = defaultdict(float)
            self.workers = 0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "busy": dict(self.busy),
                "self": dict(self.self_time),
                "counters": dict(self.counters),
                "ok_busy": dict(self.ok_busy),
                "workers": self.workers,
            }

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    # ----------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        frame = _Frame(sid, name, parent, parent.op if parent else sid,
                       time.perf_counter())
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, ok: bool) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        dur = t1 - frame.t0
        outermost = True
        p = frame.parent
        while p is not None:
            if p.name == frame.name:
                outermost = False
                break
            p = p.parent
        with self._lock:
            covered = _union_length(frame.children)
            self.calls[frame.name] += 1
            self.self_time[frame.name] += dur - covered
            if outermost:
                self.busy[frame.name] += dur
                if ok:
                    self.ok_busy[frame.name] += dur
            if frame.parent is not None:
                frame.parent.children.append((frame.t0, t1))
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((frame.op, frame.sid,
                                   frame.parent.sid if frame.parent else 0,
                                   frame.name, frame.t0, t1,
                                   threading.get_ident()))
            else:
                self.dropped_spans += 1
        frame.children = None

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark op; every span below shares its id."""
        frame = self._enter("op:" + name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(frame, ok)

    def _adopt(self, parent, fn, *args, **kwargs):
        # runs on a pool thread: spans started here are children of the
        # span that submitted the work
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    # -------------------------------------------------------------- wrappers

    def _wrap(self, name, fn, on_call=None, raised=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = tracer._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except BaseException as exc:
                if raised is not None:
                    raised(exc)
                raise
            finally:
                tracer._exit(frame, ok)

        return wrapper

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        count = self.count

        # models: the coefficient stream every layer above draws from
        self._patch(instab.models.CoefficientStream, "coeff", lambda f: self._wrap(
            "models.coeff", f,
            lambda a, k: count("models.coeff_elems", int(getattr(a[1], "size", 1)))))

        # contfrac: fixed-depth fractions and adaptive tails, from every consumer
        def trunc(f):
            return self._wrap("contfrac.trunc", f,
                              lambda a, k: count("contfrac.cf_terms", len(a[0])))

        def adaptive(f):
            def noconv(exc):
                if isinstance(exc, instab.NoConvergence):
                    count("contfrac.noconv")
            return self._wrap("contfrac.adaptive", f, raised=noconv)

        def tail_eval(f):
            # dispersion -> contfrac boundary: one call per tail evaluated
            @functools.wraps(f)
            def wrapper(*args, **kwargs):
                count("dispersion.tail_evals")
                return f(*args, **kwargs)
            return wrapper

        self._patch(instab.contfrac, "eval_trunc", trunc)
        self._patch(instab.contfrac, "eval_adaptive_coeffs", adaptive)
        self._patch(instab.eigensystem, "eval_adaptive_coeffs", adaptive)
        self._patch(instab.dispersion, "eval_trunc", lambda f: tail_eval(trunc(f)))
        self._patch(instab.dispersion, "eval_adaptive", tail_eval)

        # dispersion searches and values, called by nu0, the CLI and the ops
        for owner in (instab.dispersion, instab.cli):
            self._patch(owner, "value", lambda f: self._wrap("dispersion.value", f))
        for owner in (instab, instab.cli):
            self._patch(owner, "find_root",
                        lambda f: self._wrap("dispersion.find_root", f))
            self._patch(owner, "nu0_estimate",
                        lambda f: self._wrap("dispersion.nu0", f))

        # eigensystem
        def build_w(f):
            args_of = _bind(f)
            return self._wrap("eigensystem.build_w", f, lambda a, k: count(
                "eigensystem.window_sum", int(args_of(a, k)["N"])))

        for owner in (instab, instab.cli):
            self._patch(owner, "build_w", build_w)

        # spectral oracles
        def growth(f):
            args_of = _bind(f)

            def steps(a, k):
                bound = args_of(a, k)
                count("spectral.rk4_steps",
                      max(1, math.ceil(bound["t_final"] / bound["dt"])))
            return self._wrap("spectral.growth_rate", f, steps)

        for owner in (instab, instab.cli):
            self._patch(owner, "max_real_eig",
                        lambda f: self._wrap("spectral.eig", f))
            self._patch(owner, "det_root",
                        lambda f: self._wrap("spectral.det_root", f))
            self._patch(owner, "growth_rate", growth)
        for owner in (instab, instab.cli, instab.spectral):
            self._patch(owner, "det_I_plus_K",
                        lambda f: self._wrap("spectral.det", f))

        # cli: the command, and its grid pool
        self._patch(instab.cli, "run", lambda f: self._wrap("cli.run", f))
        self._patch(instab.cli, "ThreadPoolExecutor", self._pool_class)

    def _pool_class(self, base):
        if not (isinstance(base, type) and issubclass(base, ThreadPoolExecutor)):
            self.missing.append("instab.cli.ThreadPoolExecutor")
            return base
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                with tracer._lock:
                    tracer.workers = max(tracer.workers,
                                         int(getattr(self, "_max_workers", 0)))

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        return TracedPool

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- output

    def write_spans(self, path) -> None:
        """Write kept spans as JSON lines: op, id, parent, name, start, end, thread."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["op", "id", "parent", "name", "start_s",
                                            "end_s", "thread"],
                                 "kept": len(self.spans),
                                 "dropped": self.dropped_spans}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics from one traced pass's aggregates (times in ms)."""
    calls, busy, counters = snap["calls"], snap["busy"], snap["counters"]

    def ms(name):
        return 1e3 * busy.get(name, 0.0)

    adaptive_busy = busy.get("contfrac.adaptive", 0.0)
    steps = counters.get("spectral.rk4_steps", 0)
    return {
        "models.coeff_calls": calls.get("models.coeff", 0),
        "models.coeff_elems": counters.get("models.coeff_elems", 0),
        "models.coeff_ms": ms("models.coeff"),
        "contfrac.trunc_calls": calls.get("contfrac.trunc", 0),
        "contfrac.cf_terms": counters.get("contfrac.cf_terms", 0),
        "contfrac.trunc_ms": ms("contfrac.trunc"),
        "contfrac.adaptive_calls": calls.get("contfrac.adaptive", 0),
        "contfrac.adaptive_ms": ms("contfrac.adaptive"),
        "contfrac.noconv": counters.get("contfrac.noconv", 0),
        # no adaptive work means none was wasted
        "contfrac.useful_frac": (snap["ok_busy"].get("contfrac.adaptive", 0.0)
                                 / adaptive_busy if adaptive_busy > 0 else 1.0),
        "dispersion.tail_evals": counters.get("dispersion.tail_evals", 0),
        "dispersion.find_root_ms": ms("dispersion.find_root"),
        "dispersion.nu0_ms": ms("dispersion.nu0"),
        "dispersion.value_ms": ms("dispersion.value"),
        "eigensystem.build_w_ms": ms("eigensystem.build_w"),
        "eigensystem.window_sum": counters.get("eigensystem.window_sum", 0),
        "spectral.eig_calls": calls.get("spectral.eig", 0),
        "spectral.eig_ms": ms("spectral.eig"),
        "spectral.det_evals": calls.get("spectral.det", 0),
        "spectral.det_ms": ms("spectral.det"),
        "spectral.rk4_steps": steps,
        "spectral.growth_rate_ms": ms("spectral.growth_rate"),
        "spectral.rk4_us_per_step": (1e6 * busy.get("spectral.growth_rate", 0.0) / steps
                                     if steps else 0.0),
        "cli.run_ms": ms("cli.run"),
        "cli.self_ms": 1e3 * snap["self"].get("cli.run", 0.0),
        "cli.workers": snap["workers"],
    }


# Counters that must repeat exactly across traced runs at one seed.
EXACT_COUNTERS = (
    "contfrac.cf_terms",
    "contfrac.trunc_calls",
    "models.coeff_calls",
    "dispersion.tail_evals",
    "spectral.det_evals",
    "spectral.rk4_steps",
    "contfrac.noconv",
)
