"""verify-serial and verify-parallel: ``sweep.run_sweep`` over the desk
sweep's triples, gated against the tallies recorded at a known-good
commit so that skipping checks or BFS sources cannot read as a gain."""

from __future__ import annotations

import pickle
import resource
from time import perf_counter

from gjg import sweep

from .common import PassResult, load_expected

# Largest ground set per size: "bench" is what the benchmark command runs,
# "smoke" the smallest sweep that still reaches every check (for the
# benchmark's own tests), "full" the desk sweep of ROADMAP aim 1.  The desk
# sweep (v <= 16, 680 triples) takes about a minute serially, longer than
# one benchmark run may measure, so the benchmark sweeps v <= 15: 560
# triples, the desk sweep's own up to v = 15.
V_MAX = {"smoke": 7, "bench": 15, "full": 16}
VERTEX_BUDGET = 20_000


class Sweep:
    boundary_only = False
    speed_clock = True

    def __init__(self, seed: int, size: str, jobs: int) -> None:
        # The triples are fixed; the seed is recorded but chooses nothing.
        self.jobs = jobs
        self.cfg = sweep.SweepConfig(v_max=V_MAX[size], max_vertices=VERTEX_BUDGET, jobs=jobs)
        recorded = load_expected("sweep.json")
        self.expected_triples = {
            key: row for key, row in recorded["triples"].items()
            if int(key.split(",")[0]) <= self.cfg.v_max
        }
        self.expected_outcome = recorded["sweeps"][str(self.cfg.v_max)]

    def run_pass(self, tracer=None, clock=None) -> PassResult:
        if tracer is not None:
            tracer.request = f"sweep v<={self.cfg.v_max}"

        def progress(result) -> None:
            if clock is not None:
                clock.checkpoint(force=False)

        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        outcome = sweep.run_sweep(self.cfg, progress=progress)
        end = perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        layers = {"sweep.checks": outcome.total_checks}
        if self.jobs > 1 and tracer is not None:
            cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
            layers["sweep.pool.worker_cpu_s"] = cpu
            layers["sweep.pool.idle_frac"] = 1.0 - cpu / (self.jobs * (end - start))
            layers["sweep.pool.result_bytes"] = sum(len(pickle.dumps(r)) for r in outcome.results)
        return PassResult(
            start, end,
            # A sweep is one request: run_sweep, like `gjg verify`, answers
            # for every triple when it returns.
            ops=[(start, end)],
            attempted=len(self.expected_triples) + 3,
            outputs=outcome,
            layers=layers,
        )

    def check(self, outcome) -> list[str]:
        """One message per triple that differs from the record, plus one
        each for the complement stage, the interface stage and the total."""
        failures = []
        got = {"%d,%d,%d" % r.triple: r for r in outcome.results}
        for key, want in self.expected_triples.items():
            r = got.pop(key, None)
            if r is None:
                failures.append(f"J({key}): missing from the sweep")
            elif not r.passed:
                failures.append(f"J({key}): {r.failures[:3]}")
            elif (r.checks, r.n, r.graph_class) != (want["checks"], want["n"], want["class"]):
                failures.append(f"J({key}): checks {r.checks} n={r.n} {r.graph_class}, "
                                f"recorded {want}")
        failures += [f"J({key}): not in the recorded sweep" for key in got]
        exp = self.expected_outcome
        if outcome.complement_failures or outcome.complement_checked != exp["complement_checked"]:
            failures.append(f"complement stage: {outcome.complement_checked} pairs, "
                            f"recorded {exp['complement_checked']}, "
                            f"failures {outcome.complement_failures[:3]}")
        if outcome.interface_failures or outcome.interface_checked != exp["interface_checked"]:
            failures.append(f"interface stage: {outcome.interface_checked} probes, "
                            f"recorded {exp['interface_checked']}, "
                            f"failures {outcome.interface_failures[:3]}")
        if outcome.total_checks != exp["total_checks"] or not outcome.passed:
            failures.append(f"total: {outcome.total_checks} checks, recorded {exp['total_checks']}")
        return failures


class VerifySerial(Sweep):
    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size, jobs=1)


class VerifyParallel(Sweep):
    # Workers are separate processes: trace the parent at the sweep
    # boundary only; the oracle breakdown comes from verify-serial.
    boundary_only = True
    # Timed raw.  Calibrating in the parent while both vCPUs run workers
    # measures a contended machine (scaled times read 2.4 times too fast,
    # and would move with the workers' load); calibrating around the pass
    # measures an idle one (over five seeds the scaled wall_s spread 0.26,
    # interquartile range over median, against 0.03 raw).
    speed_clock = False

    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size, jobs=2)


def record() -> dict:
    """Tallies of a known-good commit: every triple of the desk sweep and
    the stage totals of each sweep size the benchmark runs."""
    out: dict = {"triples": {}, "sweeps": {}}
    for v_max in sorted(set(V_MAX.values()), reverse=True):
        outcome = sweep.run_sweep(sweep.SweepConfig(v_max=v_max, max_vertices=VERTEX_BUDGET))
        if not outcome.passed:
            raise SystemExit(f"sweep v<={v_max} does not pass; refusing to record it")
        for r in outcome.results:
            row = {"checks": r.checks, "n": r.n, "class": r.graph_class}
            key = "%d,%d,%d" % r.triple
            if out["triples"].setdefault(key, row) != row:
                raise SystemExit(f"J({key}) tallies differ between sweep sizes")
        out["sweeps"][str(v_max)] = {
            "triples": len(outcome.results),
            "complement_checked": outcome.complement_checked,
            "interface_checked": outcome.interface_checked,
            "total_checks": outcome.total_checks,
        }
    return out
