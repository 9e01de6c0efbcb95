"""Pass loop, set-up timing, memory and the result line."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from . import layers
from .clock import SpeedClock
from .exports import Export
from .queries import QueryMix
from .sweeps import VerifyParallel, VerifySerial
from .tracer import Tracer, summarize, write_spans

WORKLOADS = {
    "verify-serial": VerifySerial,
    "verify-parallel": VerifyParallel,
    "query-mix": QueryMix,
    "export": Export,
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_us": "us",
    "query_p99_us": "us",
}
SETUP_SAMPLES = 11
# numpy is loaded before the clock starts: its import (about 0.12 s of
# shared-library loading) swings by a third with the host from minute to
# minute and is not gjg's cost.  The interpreter times its own speed
# around the import, since it may run on another vCPU than this process.
_SETUP_CODE = """
import time
from gjgbench.clock import CALIBRATION_NOMINAL_S, calibrate
before = min(calibrate(), calibrate())
start = time.perf_counter()
import gjg.cli
took = time.perf_counter() - start
after = min(calibrate(), calibrate())
print(took * 2 * CALIBRATION_NOMINAL_S / (before + after))
"""


def measure_setup(src_dir: str, samples: int = SETUP_SAMPLES) -> float:
    """Median time of ``import gjg.cli`` in a fresh interpreter, on the
    speed clock: the fixed cost every ``gjg`` invocation and every sweep
    worker pays on top of loading numpy.  One unmeasured import first, so
    byte-code compilation is not counted."""
    bench_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, bench_dir]))
    times = []
    for n in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        if n:
            times.append(float(done.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest reaped child's
    (sweep workers, set-up interpreters); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        src_dir: str, spans_path: str | None = None, log=print) -> dict:
    """Run one workload for ``seconds`` and return the result object.

    Untraced runs time passes on the speed clock (see clock.py), unless
    the workload opts out, until ``seconds`` have passed, at least one
    pass.  Traced runs alternate untraced and traced passes, at least one
    of each, all in raw seconds, since calibrating inside a traced pass
    would add untraced time.
    """
    setup_s = None if trace else measure_setup(src_dir)
    bench = WORKLOADS[workload](seed, size)
    clock = SpeedClock() if bench.speed_clock and not trace else None
    untraced, traced, layer_rows, failures = [], [], [], []
    spans: list = []
    if clock is not None:
        clock.checkpoint()
    start = perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            counters = layers.Counters()
            with Tracer() as tracer:
                tracer.install(layers.targets(counters, bench.boundary_only))
                result = bench.run_pass(tracer)
            row = layers.pass_metrics(summarize(tracer.spans), counters, result.end - result.start)
            row.update(result.layers)
            layer_rows.append(row)
            traced.append(result)
            spans = tracer.spans
        else:
            result = bench.run_pass(clock=clock)
            if clock is not None:
                clock.checkpoint()
            untraced.append(result)
        failures += bench.check(result.outputs)
        result.outputs = None
        if perf_counter() - start >= seconds and (not trace or traced):
            break
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    log(f"# {workload} seed={seed} size={size} trace={int(trace)}: "
        f"{len(untraced)} untraced and {len(traced)} traced passes, "
        f"fail_frac={len(failures)}/{attempted}")
    log("# raw pass wall_s: " + " ".join(f"{p.end - p.start:.3f}" for p in passes))
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)

    if trace:
        metrics = {name: statistics.fmean(row.get(name, 0) for row in layer_rows)
                   for name in layers.UNITS}
        metrics["trace.untraced_wall_s"] = statistics.fmean(p.end - p.start for p in untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        if spans_path is not None:
            write_spans(spans, spans_path)
            log(f"# spans of the last traced pass: {spans_path}")
        units = layers.UNITS
    else:
        timer = clock.scaled if clock is not None else (lambda t0, t1: t1 - t0)
        walls = [timer(p.start, p.end) for p in untraced]
        # Every pass asks the same operations in the same order; an
        # operation's latency is its median over the passes.
        latencies = [statistics.median(timer(t0, t1) for t0, t1 in same) * 1e6
                     for same in zip(*(p.ops for p in untraced))]
        if clock is not None:
            log("# scaled pass wall_s: " + " ".join(f"{w:.3f}" for w in walls))
            log(f"# speed factor median {statistics.median(f for *_, f in clock.segments):.3f}")
        log(f"# latency quantiles over {len(latencies)} operations, "
            f"each the median of {len(untraced)} passes")
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "query_p50_us": quantile(latencies, 0.50),
            "query_p99_us": quantile(latencies, 0.99),
        }
        units = END_TO_END_UNITS
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
