"""Closed-loop runner: set up, repeat the timed call, aggregate, check.

One client sends operations back to back for the time budget (at least
one).  End-to-end metrics come from untraced operations.  A traced run
first repeats untraced operations for half the budget, then traced ones for
the other half; its per-layer metrics come from the traced half, and the
ratio of the two halves' wall times is the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layers import DETERMINISTIC, layer_metrics
from tracing import Tracer, instrumented
from workloads import make_workload

SETUP_REPEATS = 5
IMPORT_PROBES = 4  # fresh interpreters timed besides the benchmark's own
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import dcprox; "
                 "print(time.perf_counter() - t)")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "iter_us_p50": "us",
             "iter_us_p95": "us", "first_hit_iters": "iter", "peak_rss_mb": "MB"}


def _import_samples(src: Path, own_import_s: float) -> list:
    samples = [own_import_s]
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)],
                              capture_output=True, text=True, check=True,
                              timeout=120, cwd=src.parent)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _setup_samples(workload) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - t0)
    return samples


def _phase(workload, budget_s: float, tracer=None):
    """Operations back to back until the next one would overrun the budget."""
    ops, layers = [], []
    t0 = time.perf_counter()
    while True:
        if tracer is None:
            ops.append(workload.op())
        else:
            lo, before = len(tracer.name), dict(tracer.counts)
            op = workload.op(tracer)
            delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            layers.append(layer_metrics(tracer, lo, len(tracer.name), delta,
                                        op.wall_s, op.bytes_written))
            ops.append(op)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(ops) > budget_s:
            return ops, layers


def _repeat_failures(ops, reference, what: str) -> list:
    """Operations whose first-hit and iteration counts differ from ``reference``'s."""
    return [f"{what} {i}: counts differ from the first untraced operation"
            for i, op in enumerate(ops) if op.counts != reference.counts]


def _median_over_ops(ops, q: float) -> float:
    """Median over operations of each operation's latency percentile, so a
    stall during one operation does not set the run's tail."""
    return statistics.median(float(np.percentile(op.lat_us, q)) for op in ops)


def end_to_end(ops, setup: tuple) -> dict:
    """name -> (value, sample count) over untraced operations."""
    samples = sum(op.lat_us.size for op in ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(op.wall_s for op in ops), len(ops)),
        "setup_s": setup,
        "solve_s": (statistics.median(op.solve_s for op in ops), len(ops)),
        "iter_us_p50": (_median_over_ops(ops, 50), samples),
        # p95, not p99: on a shared 2-vCPU host, scheduler stalls of several
        # ms hit about 1 % of ms-scale iterations and set p99 by themselves.
        "iter_us_p95": (_median_over_ops(ops, 95), samples),
        "first_hit_iters": (ops[0].first_hit_iters, len(ops)),
        "peak_rss_mb": (rss_mb, 1),
    }


def run(name: str, seed: int, seconds: float, trace: bool, scale, src: Path,
        import_s: float, out_dir: Path) -> dict:
    """One benchmark run: the record that ``run.report`` prints."""
    workload = make_workload(name, seed, scale, out_dir / "matrix")
    imports = _import_samples(src, import_s)
    assembly = _setup_samples(workload)
    setup_s = (statistics.median(imports) + statistics.median(assembly),
               len(assembly))

    budget = seconds / 2 if trace else seconds
    ops, _ = _phase(workload, budget)
    failures = [f for op in ops for f in op.failures]
    failures += _repeat_failures(ops, ops[0], "untraced operation")
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "end_to_end": end_to_end(ops, setup_s),
              "operations": sum(op.attempted for op in ops)}

    if trace:
        tracer = Tracer()
        with instrumented(tracer):
            traced, layers = _phase(workload, budget, tracer)
        tracer.save(out_dir / "spans.npz")
        failures += [f for op in traced for f in op.failures]
        failures += _repeat_failures(traced, ops[0], "traced operation")
        failures += [f"traced operation {i}: layer counts differ from the first"
                     for i, lm in enumerate(layers[1:], 1)
                     if any(lm[k] != layers[0][k] for k in DETERMINISTIC)]
        per_layer = {k: statistics.median(lm[k] for lm in layers) for k in layers[0]}
        per_layer["trace.overhead"] = (statistics.median(op.wall_s for op in traced)
                                       / record["end_to_end"]["wall_s"][0])
        record["per_layer"] = (per_layer, len(traced))
        record["operations"] += sum(op.attempted for op in traced)
    record["failures"] = failures
    return record
