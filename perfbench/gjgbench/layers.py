"""Which gjg functions are traced, and the per-layer metrics made from them.

Every metric here is per pass over a workload's inputs.  Counts must
repeat exactly from pass to pass and run to run, so a later change can
rest a count claim on them; times are self times unless the name says
otherwise (``.s`` is a span's whole duration, children included).
"""

from __future__ import annotations

import weakref

import numpy as np

from .tracer import Target

# Span names whose self time is reported as "<name>.self_s".
SELF_TIMED = [
    "oracle.bfs_distances",
    "oracle.oracle_girth",
    "oracle.oracle_odd_girth",
    "oracle.oracle_diameter",
    "oracle.intersection_with",
    "sweep.run_sweep",
    "sweep.check_triple",
    "witness.geodesic",
    "witness.shortest_cycle",
    "witness.odd_closed_walk",
    "witness.common_neighbor",
    "witness.verify_walk",
    "witness.complement_walk",
    "formulas.invariant_report",
    "formulas.distance_by_intersection",
    "params.make_parameters",
    "cli.main",
    "graphio.export_graph",
    "graphio.rank",
    "graphio.unrank",
]
# Span names whose call count is reported as "<name>.calls".
CALL_COUNTED = ["oracle.build_graph", "oracle.bfs_distances", "sweep.check_triple"]
# Span names whose whole duration is reported as "<name>.s".
SPAN_TOTAL = ["sweep.check_complements", "sweep.check_interfaces"]

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
UNITS: dict[str, str] = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
    "trace.spans": "count",
    "oracle.build_graph.cold_s": "s",
    "oracle.build_graph.warm_s": "s",
    "oracle.build_graph.calls": "count",
    "oracle.graph_bytes_max": "bytes",
    "oracle.edges": "count",
    "oracle.bfs_distances.calls": "count",
    "oracle.bfs_distances.hit_ratio": "ratio",
    "sweep.check_triple.calls": "count",
    "sweep.checks": "count",
    "sweep.check_complements.s": "s",
    "sweep.check_interfaces.s": "s",
    "sweep.pool.worker_cpu_s": "s",
    "sweep.pool.idle_frac": "ratio",
    "sweep.pool.result_bytes": "bytes",
    "witness.walk_edges": "count",
    "graphio.export_bytes": "bytes",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
}


class Counters:
    """Counts taken where the work happens, fed by the tracer's observers."""

    def __init__(self) -> None:
        self.cold_ns = 0
        self.warm_ns = 0
        self.edges = 0
        self.graph_bytes_max = 0
        self.bfs_hits = 0
        self.walk_edges = 0
        self.export_bytes = 0
        self._last_family = None
        self._bfs_seen: dict[int, tuple] = {}

    def on_build(self, args, g, duration_ns: int) -> None:
        # A build is cold when its (v,k) family differs from the previous
        # build's, so the family tables are made from scratch.
        family = (g.params.v, g.params.k)
        if family != self._last_family:
            self.cold_ns += duration_ns
        else:
            self.warm_ns += duration_ns
        self._last_family = family
        self.edges += g.edge_count
        arrays = [a for a in vars(g).values() if isinstance(a, np.ndarray)]
        self.graph_bytes_max = max(self.graph_bytes_max, sum(a.nbytes for a in arrays))

    def on_bfs(self, args, dist, duration_ns: int) -> None:
        # A memo hit returns the very array object returned before for the
        # same graph and source.
        g, source = args[0], int(args[1])
        seen = self._bfs_seen.get(id(g))
        if seen is None or seen[0]() is not g:
            seen = (weakref.ref(g), {})
            self._bfs_seen[id(g)] = seen
        previous = seen[1].get(source)
        if previous is not None and previous() is dist:
            self.bfs_hits += 1
        else:
            seen[1][source] = weakref.ref(dist)

    def on_walk(self, args, walk, duration_ns: int) -> None:
        # Walks built inside other constructions (the legs of an odd
        # closed walk) count too: this is construction work, not answers.
        self.walk_edges += walk.claimed_length

    def on_export(self, args, payload, duration_ns: int) -> None:
        self.export_bytes += len(payload)


def _triple_request(v, k, i, *rest) -> str:
    return f"J({v},{k},{i})"


SWEEP_BOUNDARY = [
    Target("gjg.sweep", "run_sweep", "sweep.run_sweep"),
    Target("gjg.sweep", "check_complements", "sweep.check_complements"),
    Target("gjg.sweep", "check_interfaces", "sweep.check_interfaces"),
]


def targets(counters: Counters, boundary_only: bool = False) -> list[Target]:
    """The traced functions; ``boundary_only`` keeps the sweep boundary,
    for runs whose work happens in worker processes."""
    if boundary_only:
        return list(SWEEP_BOUNDARY)
    return SWEEP_BOUNDARY + [
        Target("gjg.sweep", "check_triple", "sweep.check_triple", request_of=_triple_request),
        Target("gjg.oracle", "build_graph", "oracle.build_graph", counters.on_build),
        Target("gjg.oracle", "bfs_distances", "oracle.bfs_distances", counters.on_bfs),
        Target("gjg.oracle", "oracle_girth", "oracle.oracle_girth"),
        Target("gjg.oracle", "oracle_odd_girth", "oracle.oracle_odd_girth"),
        Target("gjg.oracle", "oracle_diameter", "oracle.oracle_diameter"),
        Target("gjg.oracle", "intersection_with", "oracle.intersection_with"),
        Target("gjg.witness", "geodesic", "witness.geodesic", counters.on_walk),
        Target("gjg.witness", "shortest_cycle", "witness.shortest_cycle", counters.on_walk),
        Target("gjg.witness", "odd_closed_walk", "witness.odd_closed_walk", counters.on_walk),
        Target("gjg.witness", "common_neighbor", "witness.common_neighbor"),
        Target("gjg.witness", "verify_walk", "witness.verify_walk"),
        Target("gjg.witness", "complement_walk", "witness.complement_walk"),
        Target("gjg.formulas", "invariant_report", "formulas.invariant_report"),
        Target("gjg.formulas", "distance_by_intersection", "formulas.distance_by_intersection"),
        Target("gjg.params", "make_parameters", "params.make_parameters"),
        Target("gjg.cli", "main", "cli.main"),
        Target("gjg.graphio", "export_graph", "graphio.export_graph", counters.on_export),
        Target("gjg.graphio", "rank", "graphio.rank"),
        Target("gjg.graphio", "unrank", "graphio.unrank"),
    ]


def pass_metrics(summary: dict, counters: Counters, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass.  Workloads add their own
    (sweep.checks, sweep.pool.*); the trace.* pair overhead is added by
    the harness, which also times untraced passes."""
    def row(name):
        return summary.get(name, (0, 0, 0))

    bfs_calls = row("oracle.bfs_distances")[0]
    out: dict[str, float] = {
        "trace.wall_s": wall_s,
        # Self times partition the root spans, so this is the time no
        # traced span covers: the benchmark's own loop and untraced code.
        "trace.remainder_s": wall_s - sum(r[2] for r in summary.values()) / 1e9,
        "trace.spans": sum(r[0] for r in summary.values()),
        "oracle.build_graph.cold_s": counters.cold_ns / 1e9,
        "oracle.build_graph.warm_s": counters.warm_ns / 1e9,
        "oracle.graph_bytes_max": counters.graph_bytes_max,
        "oracle.edges": counters.edges,
        "oracle.bfs_distances.hit_ratio": counters.bfs_hits / bfs_calls if bfs_calls else 0.0,
        "witness.walk_edges": counters.walk_edges,
        "graphio.export_bytes": counters.export_bytes,
    }
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = row(name)[2] / 1e9
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = row(name)[0]
    for name in SPAN_TOTAL:
        out[f"{name}.s"] = row(name)[1] / 1e9
    return out
