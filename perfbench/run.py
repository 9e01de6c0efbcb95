#!/usr/bin/env python3
"""The gjg benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports gjg from the
checkout's ``src/`` and from nowhere else, and refuses to run without it.
The workloads (see BENCHMARK.json for why each was chosen):

    verify-serial    sweep.run_sweep over the triples v <= 15, jobs=1
    verify-parallel  the same triples, jobs=2 (the process-pool branch)
    query-mix        seeded closed-loop library and CLI queries, v <= 256
    export           build_graph + export_graph (edgelist, dimacs)

A run repeats passes over the workload's fixed inputs until ``--seconds``
have passed, checks every pass against values recorded at a known-good
commit (perfbench/expected/, rewritten by perfbench/record.py) and prints
the result as its last line of output:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed/attempted``
is the failure fraction; an operation is a triple (plus the sweep's three
stages), a query or an export.

With ``--trace 0`` the metrics are end to end: wall_s (median pass),
setup_s (median fresh-interpreter ``import gjg.cli``), peak_rss_mb (self
or largest child), and query_p50_us / query_p99_us, quantiles of the time
from asking for an answer to getting it, over the operations of a pass,
each taken as its median over the passes: a query in query-mix, a graph
in export, the whole sweep in the sweeps (run_sweep answers for all its
triples when it returns).  Times are on the speed clock of
gjgbench/clock.py, which rescales them to a machine of constant speed
with a calibration routine timed about every half second, because a
shared VM's speed swings more than the changes worth detecting;
verify-parallel alone is timed raw (see sweeps.py).  The log lines above
the result give the raw pass times too.

With ``--trace 1`` untraced and traced passes alternate, timed raw, and
the metrics are per layer: self times of spans recorded around calls into
gjg's public functions, counts, and the tracing overhead; the spans of
the last traced pass are written to perfbench/out/.

``--size full`` runs the whole desk sweep (v <= 16, 680 triples) instead
of v <= 15, for comparison with ROADMAP's figures; ``--size smoke`` is
the smallest input, for the benchmark's own tests (perfbench/tests).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program() -> None:
    """Import gjg from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "gjg", "__init__.py")):
        sys.exit(f"error: no gjg package under {SRC}; run from a gjg checkout")
    sys.path.insert(0, SRC)
    import gjg

    found = os.path.dirname(os.path.dirname(os.path.realpath(gjg.__file__)))
    if found != os.path.realpath(SRC):
        sys.exit(f"error: imported gjg from {found}, expected {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-serial", "verify-parallel", "query-mix", "export"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["smoke", "bench", "full"], default="bench")
    args = parser.parse_args(argv)
    import_program()
    from gjgbench import harness

    spans_path = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                         SRC, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
