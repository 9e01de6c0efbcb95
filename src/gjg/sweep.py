"""Exhaustive formula-versus-oracle verification over a parameter sweep.

For every triple (v,k,i) with 2 <= v <= v_max, v > k > i >= 0, and
C(v,k) within the vertex budget, the sweep builds the explicit graph and
checks every closed-form value, every witness construction, and every
module invariant against brute-force measurements.  The oracle measures
and the sweep compares: every distance checked here is read from the
profile that ``oracle.report_from_graph`` has agreed over all sources.
Witnesses are checked here only for v >= 2k; ``tests/test_witness.py``
covers the lifted constructions for v < 2k.  Results carry the oracle's
report so the complement isomorphism can be checked across triples
afterwards.  The process pool is imported only when a sweep runs with
jobs > 1 and has more than one chunk of triples to hand out, so importing
this module does not load multiprocessing.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap

import numpy as np

from . import formulas, graphio, oracle, witness
from .errors import DegenerateClass, Disconnected, NoCommonNeighbor, OutOfRange
from .formulas import INFINITE, invariant_report
from .params import GraphClass, Parameters, delta, intersection_range, make_parameters, normalize

MIN_PAIR_SAMPLES = 10
SMALL_GRAPH_FULL_CHECK = 600
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


@dataclass
class TripleResult:
    """Outcome of all checks on one triple; failures empty means PASS."""

    v: int
    k: int
    i: int
    n: int
    graph_class: str
    checks: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    # The oracle's agreed measurements, kept for the complement comparison;
    # None when the triple failed before they were agreed.
    measured: oracle.OracleReport | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.v, self.k, self.i)


def sweep_triples(cfg: SweepConfig) -> list[tuple[int, int, int]]:
    """All (v,k,i) with v > k > i >= 0 inside the bounds, sorted."""
    out = []
    for v in range(2, cfg.v_max + 1):
        for k in range(1, v):
            if math.comb(v, k) > cfg.max_vertices:
                continue
            out.extend((v, k, i) for i in range(k))
    return out


def _check(res: TripleResult, category: str, ok: bool, message: str, count: int = 1) -> None:
    """Tally count checks of category (none for count=0) and record
    message as a failure unless ok."""
    if count:
        res.checks[category] = res.checks.get(category, 0) + count
    if not ok:
        res.failures.append(f"{category}: {message}")


def _raises(kind: type[Exception], fn, *args) -> bool:
    """Whether fn(*args) raises kind; any other exception propagates."""
    try:
        fn(*args)
    except kind:
        return True
    return False


def _compared(rep, shift: int = 0) -> dict:
    """The fields of a report that the sweep compares across two reports:
    girth, odd girth, diameter and the distance profile, its keys moved up
    by shift.  With shift = intersection_range(p).start, a normal form's
    profile is read in p's intersection sizes."""
    return {"girth": rep.girth, "odd_girth": rep.odd_girth, "diameter": rep.diameter,
            "distance_profile": {x + shift: d for x, d in rep.distance_profile.items()}}


def _check_lower_bound(res: TripleResult, p: Parameters, profile: dict, pairs: dict[int, int]) -> None:
    """Path-length lower bounds on the agreed profile: a shortest path of
    length 2p needs p >= ceil((k-x)/delta), of length 2p+1 needs
    p >= ceil((x-i)/delta).  Every vertex of class x lies at profile[x]
    from every source, so one check per class stands for its pairs[x]
    (source, vertex) pairs."""
    d = delta(p)
    if d <= 0:
        return
    for x, dist in profile.items():
        if dist != INFINITE:
            half, odd = divmod(dist, 2)
            # ceil(a/d) as -(-a // d), which holds for a = x - i < 0 too
            need = -((p.i - x if odd else x - p.k) // d)
            _check(res, "lower_bound", half >= need,
                   f"x={x}: distance {dist} needs {2 * need + odd}", count=pairs[x])


def _check_witnesses(res: TripleResult, p: Parameters, rep, g) -> None:
    """Geodesics, shortest cycle, odd walk, and common-neighbor claims,
    all validated with verify_walk and against oracle adjacency."""
    for x in intersection_range(p):
        a, b = witness.canonical_pair(p, x)
        w = witness.geodesic(p, a, b)
        want = rep.distance_profile[x]
        _check(res, "witness", witness.verify_walk(p, w) and w.claimed_length == want,
               f"geodesic at x={x} of length {w.claimed_length} fails verify_walk or formula {want}")

        # Common-neighbor construction against the packed adjacency rows; where a
        # wrongly claimed neighbour makes it raise, record that and go on.
        shared = g.adj[graphio.rank(p, a)] & g.adj[graphio.rank(p, b)]
        found = bool(shared.any())
        claims = formulas.has_common_neighbor(p, x)
        _check(res, "common_neighbor", claims == found, f"x={x}: formula {claims}, oracle {found}")
        try:
            c = witness.common_neighbor(p, a, b)
        except NoCommonNeighbor as exc:
            _check(res, "common_neighbor", not claims, f"x={x}: no witness constructed: {exc}", count=0)
        else:
            rc = graphio.rank(p, c)
            adjacent = len(set(c) & set(a)) == p.i == len(set(c) & set(b))
            _check(res, "common_neighbor", claims and adjacent and bool(shared[rc >> 3] & 0x80 >> (rc & 7)),
                   f"x={x}: constructed witness {c} is not a shared neighbor" if claims
                   else f"x={x}: expected NoCommonNeighbor", count=0)

    cyc = witness.shortest_cycle(p)
    _check(res, "witness", witness.verify_walk(p, cyc) and cyc.claimed_length == rep.girth,
           f"shortest_cycle length {cyc.claimed_length} != girth {rep.girth}")
    ow = witness.odd_closed_walk(p)
    _check(res, "witness", witness.verify_walk(p, ow) and ow.claimed_length == rep.odd_girth,
           f"odd walk length {ow.claimed_length} != odd girth {rep.odd_girth}")


def _check_max_route(res: TripleResult, p: Parameters) -> None:
    if p.k - p.i < 2:
        return
    exhaustive = max(formulas.distance_by_intersection(p, x) for x in range(p.i + 1, p.k + 1))
    closed = formulas.max_route_distance(p)
    _check(res, "max_route", exhaustive == closed, f"exhaustive {exhaustive} != closed form {closed}")


def _check_rank_roundtrip(res: TripleResult, p: Parameters, n: int) -> None:
    if n <= 512:
        samples = set(range(n))
    else:
        rng = np.random.default_rng([p.v, p.k, p.i, 977])
        samples = {0, n - 1, *map(int, rng.integers(0, n, 64))}
    bad = sorted(r for r in samples if graphio.rank(p, graphio.unrank(p, r)) != r)
    _check(res, "rank_roundtrip", not bad, f"ranks {bad} do not round-trip", count=len(samples))
    for r in (-1, n):
        _check(res, "rank_roundtrip", _raises(OutOfRange, graphio.unrank, p, r),
               f"unrank({r}) should raise", count=0)


def check_triple(v: int, k: int, i: int, max_vertices: int = oracle.DEFAULT_VERTEX_BUDGET) -> TripleResult:
    """Run every per-triple check; never raises, failures are recorded."""
    p = make_parameters(v, k, i)
    n = math.comb(v, k)
    res = TripleResult(v, k, i, n, p.graph_class.value)
    try:
        _run_checks(res, p, max_vertices)
    except Exception as exc:  # a crash is a failed triple, not a crashed sweep
        _check(res, "internal", False, f"{type(exc).__name__}: {exc}", count=0)
    return res


def _check_pairing(res: TripleResult, g: oracle.ExplicitGraph) -> None:
    """A matching's adjacency rows: each vertex's only neighbor is its
    complement, which in colex order is rank n-1-u.  Row u holds that
    partner's bit, and adj has no other nonzero byte."""
    partner = g.n - 1 - np.arange(g.n)
    exact = np.count_nonzero(g.adj) == g.n and np.array_equal(
        g.adj[np.arange(g.n), partner >> 3], 0x80 >> (partner & 7))
    _check(res, "matching", exact, "a vertex's only neighbor is not its complement")


def _check_matching(res: TripleResult, p: Parameters, rep, measured, g) -> None:
    """Every check on a matching (2k,k,0), the class the paper excludes: its
    pairing, its report, and witnesses for its edges, partial overlaps and cycles."""
    _check_pairing(res, g)
    _check(res, "matching", p.k < 2 or rep.diameter == INFINITE,
           "diameter should be infinite", count=0)
    _check(res, "matching", p.k < 2 or not measured.connected, "oracle says connected", count=0)
    _check(res, "matching", rep.girth is None and rep.odd_girth is None,
           "girth/odd girth should be undefined", count=0)
    w = witness.geodesic(p, *witness.canonical_pair(p, 0))
    _check(res, "witness", witness.verify_walk(p, w) and w.claimed_length == 1,
           "matching edge geodesic invalid")
    if p.k >= 2:
        _check(res, "witness", _raises(Disconnected, witness.geodesic, p, *witness.canonical_pair(p, 1)),
               "expected Disconnected for partial overlap")
    for op in (witness.shortest_cycle, witness.odd_closed_walk):
        _check(res, "witness", _raises(DegenerateClass, op, p),
               f"{op.__name__} should reject a matching")


def _run_checks(res: TripleResult, p: Parameters, max_vertices: int) -> None:
    rep = invariant_report(p)
    g = oracle.build_graph(p, max_vertices)
    n = g.n

    # Degree regularity is asserted during the build; record it.
    _check(res, "degree", True, "", count=n)

    # How many BFS sources: enough that every intersection class except
    # x = k (identical pairs) accumulates MIN_PAIR_SAMPLES sampled pairs,
    # where that many distinct pairs exist at all.
    class_sizes = {
        x: math.comb(p.k, x) * math.comb(p.v - p.k, p.k - x)
        for x in intersection_range(p)
    }
    thin = [s for x, s in class_sizes.items() if x != p.k]
    many = n <= SMALL_GRAPH_FULL_CHECK or min(thin) * 3 < MIN_PAIR_SAMPLES
    want_sources = min(n, MIN_PAIR_SAMPLES) if many else 4
    searches = [oracle.search(g, s) for s in oracle._sources(p.v, p.k, p.i, n, want_sources)]

    # Formula versus measured invariants, each measured identically from
    # every source (vertex transitivity).
    try:
        res.measured = measured = oracle.report_from_graph(g, searches)
    except AssertionError as exc:
        _check(res, "transitivity", False, str(exc), count=0)
        return
    # Counted as girth, odd girth and diameter from four sources, as
    # perfbench/expected/sweep.json records them; the diameter is read from
    # the agreed profile.
    _check(res, "transitivity", True, "", count=3 * min(4, n))
    profile = measured.distance_profile

    got = _compared(measured)
    for name, want in _compared(rep).items():
        _check(res, name, want == got[name], f"formula {want}, oracle {got[name]}",
               count=len(profile) if name == "distance_profile" else 1)

    # Sampled pairs: each (source, vertex) pair is one sample for its class;
    # report_from_graph has agreed every source's profile.
    pairs = {x: size * len(searches) for x, size in class_sizes.items()}
    for x, sampled in pairs.items():
        if x == p.k:
            continue  # only identical pairs; distance 0 holds per source by construction
        wanted = min(MIN_PAIR_SAMPLES, class_sizes[x] * n)
        _check(res, "pair_sampling", sampled >= wanted, f"x={x}: only {sampled} sampled pairs",
               count=min(sampled, wanted))

    _check_lower_bound(res, p, profile, pairs)

    if not p.is_degenerate:
        # Distance-2 criterion: beyond adjacency, two vertices are at
        # distance exactly 2 iff they have a common neighbor.
        for x, dval in profile.items():
            if dval != 0 and dval != 1:
                _check(res, "common_neighbor", (dval == 2) == formulas.has_common_neighbor(p, x),
                       f"x={x}: distance {dval} contradicts predicate")
        if p.graph_class is GraphClass.MATCHING:
            _check_matching(res, p, rep, measured, g)
        else:
            peak = max(rep.distance_profile.values())
            _check(res, "diameter", rep.diameter == peak,
                   f"diameter {rep.diameter} != profile max {peak}", count=0)
            # Witnesses for v < 2k are checked in tests/test_witness.py; here they
            # would change the per-triple tallies in perfbench/expected/sweep.json.
            if p.is_normalized:
                _check_witnesses(res, p, rep, g)
            _check_max_route(res, p)
    _check_rank_roundtrip(res, p, n)


def check_complements(results: list[TripleResult]) -> tuple[int, list[str]]:
    """Cross-triple check of the complement isomorphism.

    Every non-degenerate triple p with v < 2k must give the same
    :func:`_compared` fields as its normalized partner read at the shift
    intersection_range(p).start.  A pair missing either oracle report is
    flagged.
    """
    by_triple = {r.triple: r for r in results}
    checked, failures = 0, []
    for r in results:
        p = make_parameters(*r.triple)
        if p.is_normalized or p.is_degenerate:
            continue
        q = normalize(p)
        partner = by_triple.get((q.v, q.k, q.i))
        if partner is None:
            failures.append(f"{p}: normalized partner missing from sweep")
            continue
        checked += 1
        a, b = r.measured, partner.measured
        if a is None or b is None:
            failures.append(f"{p}: no oracle report to compare with its complement form")
            continue
        if _compared(a) != _compared(b, intersection_range(p).start):
            failures.append(f"{p} disagrees with its complement form")
    return checked, failures


def check_interfaces(cfg: SweepConfig) -> tuple[int, list[str]]:
    """Exercise the serialization surface and the bundled oracle queries on
    fixed small graphs with known golden output."""
    checked, failures = 0, []

    def probe(cond: bool, label: str) -> None:
        nonlocal checked
        checked += 1
        if not cond:
            failures.append(f"interface: {label}")

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
    """Check every triple in the sweep; jobs > 1 distributes across processes."""
    triples = sweep_triples(cfg)
    check = partial(check_triple, max_vertices=cfg.max_vertices)
    results: list[TripleResult] = []
    # The pool forks every worker up front, so it gets no more workers than
    # there are chunks to hand out; one chunk runs here, without a pool.
    jobs = min(cfg.jobs, math.ceil(len(triples) / _CHUNK))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for r in pool.map(check, *zip(*triples), chunksize=_CHUNK) if pool else starmap(check, triples):
            results.append(r)
            if progress:
                progress(r)
    results.sort(key=lambda r: r.triple)
    checked, failures = check_complements(results)
    if_checked, if_failures = check_interfaces(cfg)
    return SweepOutcome(results, checked, failures, if_checked, if_failures)
