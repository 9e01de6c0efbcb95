"""Exhaustive formula-versus-oracle verification over a parameter sweep.

For every triple (v,k,i) with 2 <= v <= v_max, v > k > i >= 0, and
C(v,k) within the vertex budget, the sweep builds the explicit graph and
checks every closed-form value, every witness construction, and every
module invariant against brute-force measurements.  The oracle measures
and the sweep compares: every distance checked here is read from the
profile that ``oracle.report_from_graph`` has agreed over the oracle's
sources, as many as ``oracle.source_count`` decides for every caller.
The graph block, ``_run_checks``, reads the graph: degrees, the
oracle's agreed report and pair sampling, then the report block
(``compare.check_report``, which reads no graph) on that report, then
the adjacency rows against the certificates and the rank round trip; no
check of its own reads a closed form.  Results carry the oracle's
report so the complement isomorphism (``compare.check_complements``)
can be checked across triples afterwards.  The process pool is imported
only when a sweep runs with jobs > 1 and has more than one chunk of
triples to hand out, so importing this module does not load
multiprocessing.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap

import numpy as np

from . import graphio, oracle, witness
from .compare import TripleResult, check, check_complements, check_report, raises
from .errors import NoCommonNeighbor, OutOfRange
from .formulas import invariant_report
from .params import GraphClass, Parameters, class_size, make_parameters

_CHUNK = 8  # triples per task handed to a pool worker


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU the OS reports."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class SweepConfig:
    """Sweep bounds, each an int (bools are not); jobs may also be 'auto'."""

    v_max: int = 16
    max_vertices: int = oracle.DEFAULT_VERTEX_BUDGET
    jobs: int | str = 1

    def __post_init__(self) -> None:
        if self.jobs == "auto":
            self.jobs = _usable_cpus()
        for name in ("v_max", "max_vertices", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 2 <= self.v_max <= oracle.MAX_GROUND_SET:
            raise ValueError(f"v_max must be in [2, {oracle.MAX_GROUND_SET}], got {self.v_max}")
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be positive")
        if self.jobs < 1:
            raise ValueError(f"jobs must be a positive integer or 'auto', got {self.jobs!r}")


def sweep_triples(cfg: SweepConfig) -> list[tuple[int, int, int]]:
    """All (v,k,i) with v > k > i >= 0 inside the bounds, sorted."""
    out = []
    for v in range(2, cfg.v_max + 1):
        for k in range(1, v):
            if math.comb(v, k) > cfg.max_vertices:
                continue
            out.extend((v, k, i) for i in range(k))
    return out


def _check_rank_roundtrip(res: TripleResult, p: Parameters, n: int) -> None:
    if n <= 512:
        samples = set(range(n))
    else:
        rng = np.random.default_rng([p.v, p.k, p.i, 977])
        samples = {0, n - 1, *map(int, rng.integers(0, n, 64))}
    bad = sorted(r for r in samples if graphio.rank(p, graphio.unrank(p, r)) != r)
    check(res, "rank_roundtrip", not bad, f"ranks {bad} do not round-trip", count=len(samples))
    for r in (-1, n):
        check(res, "rank_roundtrip", raises(OutOfRange, graphio.unrank, p, r),
              f"unrank({r}) should raise", count=0)


def check_triple(v: int, k: int, i: int, max_vertices: int = oracle.DEFAULT_VERTEX_BUDGET) -> TripleResult:
    """Run every per-triple check; never raises, failures are recorded."""
    p = make_parameters(v, k, i)
    n = math.comb(v, k)
    res = TripleResult(v, k, i, n, p.graph_class.value)
    try:
        _run_checks(res, p, max_vertices)
    except Exception as exc:  # a crash is a failed triple, not a crashed sweep
        check(res, "internal", False, f"{type(exc).__name__}: {exc}", count=0)
    return res


def _check_pairing(res: TripleResult, g: oracle.ExplicitGraph) -> None:
    """A matching's adjacency rows: each vertex's only neighbor is its
    complement, which in colex order is rank n-1-u.  Row u holds that
    partner's bit, and adj has no other nonzero byte."""
    partner = g.n - 1 - np.arange(g.n)
    exact = np.count_nonzero(g.adj) == g.n and np.array_equal(
        g.adj[np.arange(g.n), partner >> 3], 0x80 >> (partner & 7))
    check(res, "matching", exact, "a vertex's only neighbor is not its complement")


def _check_common_neighbors(res: TripleResult, p: Parameters, g: oracle.ExplicitGraph, profile: dict) -> None:
    """The common-neighbour construction against the packed adjacency rows
    of the canonical pair of each measured class: it builds a vertex in
    both rows exactly when the rows share one."""
    for x in profile:
        a, b = witness.canonical_pair(p, x)
        shared = g.adj[graphio.rank(p, a)] & g.adj[graphio.rank(p, b)]
        try:
            c = witness.common_neighbor(p, a, b)
        except NoCommonNeighbor as exc:
            check(res, "common_neighbor", not shared.any(), f"x={x}: no witness constructed: {exc}")
        else:
            rc = graphio.rank(p, c)
            check(res, "common_neighbor", bool(shared[rc >> 3] & 0x80 >> (rc & 7)),
                  f"x={x}: constructed witness {c} is not a shared neighbor")


def _run_checks(res: TripleResult, p: Parameters, max_vertices: int) -> None:
    """The graph block: the checks that read the built graph, around the
    report block run on the graph's agreed report."""
    g = oracle.build_graph(p, max_vertices)
    n = g.n

    # Degree regularity is asserted during the build; record it.
    check(res, "degree", True, "", count=n)

    # Every invariant measured identically from each source (vertex transitivity).
    try:
        res.measured = measured = oracle.report_from_graph(g)
    except AssertionError as exc:
        check(res, "transitivity", False, str(exc), count=0)
        return
    # Counted as girth, odd girth and diameter from four sources, as
    # perfbench/expected/sweep.json records them; the diameter is read from
    # the agreed profile.
    check(res, "transitivity", True, "", count=3 * min(4, n))

    # Sampled pairs: each (source, vertex) pair of a measured class is one
    # sample for it; report_from_graph has agreed every source's profile.
    sources = oracle.source_count(p)
    for x in measured.distance_profile:
        if x == p.k:
            continue  # only identical pairs; distance 0 holds per source by construction
        sampled, wanted = class_size(p, x) * sources, min(oracle.MIN_PAIR_SAMPLES, class_size(p, x) * n)
        check(res, "pair_sampling", sampled >= wanted, f"x={x}: only {sampled} sampled pairs",
              count=min(sampled, wanted))

    check_report(res, measured, sources)
    if p.graph_class is GraphClass.MATCHING:
        _check_pairing(res, g)
    elif p.is_normalized and not p.is_degenerate:
        _check_common_neighbors(res, p, g, measured.distance_profile)
    _check_rank_roundtrip(res, p, n)


def check_interfaces(cfg: SweepConfig) -> tuple[int, list[str]]:
    """Exercise the serialization surface and the bundled oracle queries on
    fixed small graphs with known golden output; a probe that raises ends
    them with a failure naming the exception."""
    checked, failures = 0, []

    def probe(cond: bool, label: str) -> None:
        nonlocal checked
        checked += 1
        if not cond:
            failures.append(f"interface: {label}")

    try:
        if cfg.v_max >= 5 and cfg.max_vertices >= 10:
            p = make_parameters(5, 2, 0)
            g = oracle.build_graph(p, cfg.max_vertices)
            dimacs = graphio.export_graph(g, "dimacs")
            probe(dimacs.startswith(b"p edge 10 15\n"), "dimacs header for J(5,2,0)")
            probe(len(dimacs.splitlines()) == 16, "dimacs line count for J(5,2,0)")
            probe(oracle.oracle_distance(g, 1) == 2, "agreed distance on J(5,2,0)")
            rep = oracle.oracle_report(p, cfg.max_vertices)
            probe(
                (rep.girth, rep.odd_girth, rep.diameter, rep.connected) == (5, 5, 2, True),
                "oracle report bundle for J(5,2,0)",
            )
            payload = graphio.export_report(rep).decode()
            probe(payload.startswith("schema: "), "report schema line")
            probe("connected: true" in payload, "report connectivity field")
        if cfg.v_max >= 6 and cfg.max_vertices >= 20:
            p = make_parameters(6, 3, 0)
            g = oracle.build_graph(p, cfg.max_vertices)
            edges = graphio.export_graph(g, "edgelist").decode().splitlines()
            probe(len(edges) == g.n * g.degree // 2 == 10, "edgelist size for J(6,3,0)")
            probe(edges[0] == "0 19", "first matching edge by rank")
            payload = graphio.export_report(invariant_report(p)).decode()
            probe("diameter: infinite" in payload and "girth: undefined" in payload,
                  "degenerate literals in report")
    except Exception as exc:  # a crash is a failed interface, not a crashed sweep
        failures.append(f"interface: {type(exc).__name__}: {exc}")
    return checked, failures


@dataclass
class SweepOutcome:
    results: list[TripleResult]
    complement_checked: int
    complement_failures: list[str]
    interface_checked: int = 0
    interface_failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            all(r.passed for r in self.results)
            and not self.complement_failures
            and not self.interface_failures
        )

    @property
    def total_checks(self) -> int:
        return (
            sum(sum(r.checks.values()) for r in self.results)
            + self.complement_checked
            + self.interface_checked
        )


def run_sweep(cfg: SweepConfig, progress=None) -> SweepOutcome:
    """Check every triple in the sweep; jobs > 1 distributes across processes.
    Results keep the order of sweep_triples, as map and starmap do."""
    triples = sweep_triples(cfg)
    run = partial(check_triple, max_vertices=cfg.max_vertices)
    results: list[TripleResult] = []
    # The pool forks every worker up front, so it gets no more workers than
    # there are chunks to hand out; one chunk runs here, without a pool.
    jobs = min(cfg.jobs, math.ceil(len(triples) / _CHUNK))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for r in pool.map(run, *zip(*triples), chunksize=_CHUNK) if pool else starmap(run, triples):
            results.append(r)
            if progress:
                progress(r)
    checked, failures = check_complements(results)
    if_checked, if_failures = check_interfaces(cfg)
    return SweepOutcome(results, checked, failures, if_checked, if_failures)
