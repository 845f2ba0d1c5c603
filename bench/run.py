#!/usr/bin/env python3
"""instab benchmark: one seeded workload, closed loop, checked outputs.

Run from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0

One client issues ops back to back (a closed loop); the only other threads
are the CLI's own grid pool.  A pass runs every op of the workload once; the
run makes whole passes until ``--seconds`` have elapsed.  Ops are checked
after each pass, outside the op timings; a failed op is counted, never
dropped or retried.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and it reports the
per-layer metrics of one traced pass.  Lines before it start with ``#``
and give details.

Every op is timed next to a fixed reference kernel (``speed.py``), and the
timings are reported at reference speed, so that the machine's own changes
of speed cancel.  Throughput and the median op time use each op's median
time over the run's passes, so a slowdown in more than half of an op's
passes counts; the tail is a percentile of all op times pooled, so
intermittent slow ops count too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("certify", "tables", "dynamics", "deep")
# op_ms_tail is a fixed percentile per workload, with at least TAIL_BEYOND
# op times beyond it in a 30 s run on a 2-core machine.  A percentile chosen
# afresh in each run would change with the number of passes, so a faster
# program that runs more passes could jump to a higher percentile and read
# slower.  Pooled op times come in steps, one per op kind; a percentile near
# a step takes the extreme times of one kind and jumps between runs, so
# dynamics and deep use p70, which lies within a kind (dynamics) or between
# two kinds of nearly equal time (deep).
TAIL_PCT = {"certify": 95, "tables": 90, "dynamics": 70, "deep": 70}
SETUP_PROBES = 7
TAIL_BEYOND = 10
# One client and the CLI's grid pool are the only threads: native BLAS and
# OpenMP pools would add threads of their own on the same two cores.
NATIVE_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: build the inputs, print 'ready' and exit")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_program():
    # the benchmark measures the checkout's own source tree, never an
    # installed copy
    for var in NATIVE_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "instab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no instab source tree at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import instab
    if Path(instab.__file__).resolve().parent != (SRC / "instab").resolve():
        sys.stderr.write(f"error: imported instab from {instab.__file__}\n")
        sys.exit(2)


def _setup_probe(args, kernel) -> tuple[float, float]:
    """Seconds from a fresh interpreter to instab imported and inputs built,
    and the reference kernel's time around it."""
    before = kernel()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed, 0.5 * (before + kernel())


class Loop:
    """Runs passes of ops and keeps failure counts."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.kernel = speed.Kernel()

    def run_ops(self, tracer=None) -> list:
        """Every op once, timed, with the reference kernel run between ops.

        Gives (op, output, exception, seconds, kernel seconds) per op; the
        kernel time is the mean of the runs just before and just after it.
        """
        outputs = []
        before = self.kernel()
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.call()
                else:
                    with tracer.op(op.name):
                        out = op.call()
                err = None
            except Exception as exc:  # an op failure is counted, not fatal
                out, err = None, exc
            elapsed = time.perf_counter() - t0
            after = self.kernel()
            outputs.append((op, out, err, elapsed, 0.5 * (before + after)))
            before = after
        return outputs

    def check(self, outputs) -> list[tuple[str, float, float]]:
        """Checks the outputs of one pass and returns its op timings:
        (op name, wall seconds, kernel seconds)."""
        for op, out, err, _, _ in outputs:
            if err is not None:
                problem = f"raised {type(err).__name__}: {err}"
            else:
                try:
                    problem = op.check(out)
                except Exception as exc:  # a malformed output fails its check
                    problem = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.name}: {problem}")
        return [(op.name, dt, ref) for op, _, _, dt, ref in outputs]

    def one_pass(self) -> list[tuple[str, float, float]]:
        return self.check(self.run_ops())

    def passes(self, seconds: float, on_pass=None):
        """Whole passes until ``seconds`` of wall time have elapsed (at least one).

        Returns the op timings of each pass.
        """
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.one_pass())
            if on_pass is not None:
                on_pass()
            if time.perf_counter() - start >= seconds:
                return passes

    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def _op_ms(passes, wall=False) -> dict[str, list[float]]:
    """Each op's times over the passes in ms, at reference speed unless
    ``wall``."""
    times = {}
    for timings in passes:
        for name, dt, ref in timings:
            ms = 1e3 * (dt if wall else speed.at_reference(dt, ref))
            times.setdefault(name, []).append(ms)
    return times


def _median_ms(passes, wall=False) -> dict[str, float]:
    """Each op's median time over the passes, in ms."""
    return {name: statistics.median(ms) for name, ms in _op_ms(passes, wall).items()}


def _throughput(passes, ok_share: float, wall=False) -> float:
    """Checked-correct ops per second of a pass run at each op's median time."""
    median = _median_ms(passes, wall)
    return ok_share * len(median) / (1e-3 * sum(median.values()))


def _tail(ms: list[float], pct: int) -> tuple[float, int]:
    """The nearest-rank ``pct`` percentile and the number of samples above it."""
    s = sorted(ms)
    rank = max(1, -(-pct * len(s) // 100))
    return s[rank - 1], len(s) - rank


def _info(text: str) -> None:
    print(f"# {text}")


def _end_to_end(args, loop) -> dict:
    # one setup probe after each pass, so that a short slow spell of the
    # machine does not skew all of them
    setup = []

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(_setup_probe(args, loop.kernel))

    passes = loop.passes(args.seconds, on_pass=probe)
    while len(setup) < SETUP_PROBES:
        probe()
    times = _op_ms(passes)
    median = {name: statistics.median(ms) for name, ms in times.items()}
    wall = _median_ms(passes, wall=True)
    raw = [ms for op_ms in times.values() for ms in op_ms]
    kernel_ms = [1e3 * ref for timings in passes for _, _, ref in timings]
    pct = TAIL_PCT[args.workload]
    tail, beyond = _tail(raw, pct)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _info(f"times are at reference speed: wall time x "
          f"{1e3 * speed.REFERENCE_S:g} ms / reference kernel time; the kernel "
          f"took median {statistics.median(kernel_ms):.3f} ms, "
          f"min {min(kernel_ms):.3f} ms, max {max(kernel_ms):.3f} ms")
    for name, ms in times.items():
        _info(f"op {name}: median {median[name]:.3f} ms (wall {wall[name]:.3f} ms), "
              f"min {min(ms):.3f} ms, max {max(ms):.3f} ms over {len(ms)}")
    _info(f"passes {len(passes)}; op_ms_tail is p{pct} of {len(raw)} op "
          f"times, with {beyond} beyond it")
    if beyond < TAIL_BEYOND:
        _info(f"WARNING: fewer than {TAIL_BEYOND} op times beyond p{pct}")
    setup_s = [speed.at_reference(t, ref) for t, ref in setup]
    _info(f"setup probes at reference speed (s): "
          f"{', '.join(f'{t:.4f}' for t in setup_s)}; wall (s): "
          f"{', '.join(f'{t:.4f}' for t, _ in setup)}")
    _info(f"throughput at wall time {_throughput(passes, loop.ok_share(), wall=True):.4f}"
          f" ops/s")
    _info(f"failed_frac {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted})")
    _info(f"INSTAB_THREADS={os.environ.get('INSTAB_THREADS', 'unset')}, "
          f"cpu_count={os.cpu_count()}, "
          + ", ".join(f"{v}={os.environ[v]}" for v in NATIVE_THREAD_VARS))
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (_throughput(passes, loop.ok_share()), "1/s"),
        "op_ms_p50": (statistics.median(median.values()), "ms"),
        "op_ms_tail": (tail, "ms"),
        "ok_frac": (loop.ok_share(), "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _per_layer(args, loop) -> dict:
    import tracing

    # untraced and traced passes alternate, so that both see the same
    # machine: with one half each, a slow spell lands on one side only
    tracer = tracing.Tracer()
    untraced_passes, traced_passes, snaps = [], [], []
    start = time.perf_counter()
    while not traced_passes or time.perf_counter() - start < args.seconds:
        untraced_passes.append(loop.one_pass())
        # the checks call instab too, so they run with the tracer removed
        tracer.install()
        try:
            outputs = loop.run_ops(tracer)
        finally:
            tracer.uninstall()
        traced_passes.append(loop.check(outputs))
        snaps.append(tracer.snapshot())
        tracer.reset()
    untraced = _throughput(untraced_passes, 1.0)
    traced = _throughput(traced_passes, 1.0)

    per_pass = [tracing.layer_metrics(s) for s in snaps]
    # counters are the same in every pass; times come from the fastest pass
    durations = [sum(dt for _, dt, _ in timings) for timings in traced_passes]
    metrics = per_pass[durations.index(min(durations))]
    unsteady = [k for k in tracing.EXACT_COUNTERS
                if any(p[k] != per_pass[0][k] for p in per_pass)]
    if unsteady:
        _info(f"WARNING: counters differ between traced passes: {unsteady}")
    metrics["trace.overhead_frac"] = (untraced - traced) / untraced

    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    _info(f"traced passes {len(snaps)}; per-layer values are those of the "
          f"fastest traced pass")
    _info("busy times are summed across the CLI pool's threads and may exceed "
          "wall time")
    _info(f"throughput at median op times, at reference speed: untraced "
          f"{untraced:.4f} ops/s, "
          f"traced {traced:.4f} ops/s")
    _info(f"spans written to {spans.relative_to(ROOT)} "
          f"({len(tracer.spans)} kept, {tracer.dropped_spans} dropped)")
    if tracer.missing:
        _info(f"boundaries absent from this instab: {', '.join(tracer.missing)}")
    units = {"_ms": "ms", "_frac": "frac", "_per_step": "us"}
    return {k: (v, next((u for s, u in units.items() if k.endswith(s)), "count"))
            for k, v in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import workloads

    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    if args.setup_probe:
        workloads.build(args.workload, args.seed, scratch)
        print("ready", flush=True)
        return 0

    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, scratch)
        loop = Loop(workload.prepare())
        if args.trace:
            metrics = _per_layer(args, loop)
        else:
            metrics = _end_to_end(args, loop)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in loop.failures:
        sys.stderr.write(f"FAILED {failure}\n")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
