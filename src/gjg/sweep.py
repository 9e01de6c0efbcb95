"""Exhaustive formula-versus-oracle verification over a parameter sweep.

For every triple (v,k,i) with 2 <= v <= v_max, v > k > i >= 0, and
C(v,k) within the vertex budget, the sweep builds the explicit graph and
checks every closed-form value, every witness construction, and every
module invariant against brute-force measurements.  Results carry the
oracle summaries so the complement isomorphism can be checked across
triples afterwards.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import formulas, graphio, oracle, witness
from .errors import DegenerateClass, Disconnected, NoCommonNeighbor, OutOfRange
from .formulas import INFINITE, invariant_report
from .params import GraphClass, Parameters, delta, intersection_range, make_parameters, normalize

MIN_PAIR_SAMPLES = 10
SMALL_GRAPH_FULL_CHECK = 600


@dataclass
class SweepConfig:
    """Sweep bounds; jobs may be a positive integer or 'auto'."""

    v_max: int = 16
    max_vertices: int = oracle.DEFAULT_VERTEX_BUDGET
    jobs: int | str = 1

    def __post_init__(self) -> None:
        if not 2 <= self.v_max <= 64:
            raise ValueError(f"v_max must be in [2, 64], got {self.v_max}")
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be positive")
        if self.jobs == "auto":
            self.jobs = os.cpu_count() or 1
        if not isinstance(self.jobs, int) or self.jobs < 1:
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
    # Oracle summary kept for cross-triple complement comparison.
    oracle_girth: int | None = None
    oracle_odd_girth: int | None = None
    oracle_diameter: int | float | None = None
    oracle_profile: dict[int, int | float] = field(default_factory=dict)

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


def _tally(res: TripleResult, category: str, count: int = 1) -> None:
    res.checks[category] = res.checks.get(category, 0) + count


def _fail(res: TripleResult, category: str, message: str) -> None:
    res.failures.append(f"{category}: {message}")


def _ceil_div_arr(a: np.ndarray, b: int) -> np.ndarray:
    # Floor division rounds toward -inf, so this is ceil(a/b) for any sign of a.
    return -((-a) // b)


def _check_lower_bound(res: TripleResult, p: Parameters, dist: np.ndarray, overlap: np.ndarray) -> None:
    """Path-length lower bounds along every BFS tree: a shortest path of
    length 2p needs p >= ceil((k-x)/delta), of length 2p+1 needs
    p >= ceil((x-i)/delta)."""
    d = delta(p)
    if d <= 0:
        return
    reach = dist >= 0
    dd = dist[reach].astype(np.int64)
    xx = overlap[reach].astype(np.int64)
    even = dd % 2 == 0
    p_even = dd[even] // 2
    p_odd = (dd[~even] - 1) // 2
    bad_even = int((p_even < _ceil_div_arr(p.k - xx[even], d)).sum())
    bad_odd = int((p_odd < _ceil_div_arr(xx[~even] - p.i, d)).sum())
    _tally(res, "lower_bound", int(reach.sum()))
    if bad_even or bad_odd:
        _fail(res, "lower_bound", f"{bad_even} even and {bad_odd} odd violations")


def _check_witnesses(res: TripleResult, p: Parameters, rep, g) -> None:
    """Geodesics, shortest cycle, odd walk, and common-neighbor claims,
    all validated with verify_walk and against oracle adjacency."""
    if p.graph_class is GraphClass.MATCHING:
        a, b = witness.canonical_pair(p, 0)
        w = witness.geodesic(p, a, b)
        _tally(res, "witness")
        if not witness.verify_walk(p, w) or w.claimed_length != 1:
            _fail(res, "witness", "matching edge geodesic invalid")
        if p.k >= 2:
            try:
                witness.geodesic(p, *witness.canonical_pair(p, 1))
                _fail(res, "witness", "expected Disconnected for partial overlap")
            except Disconnected:
                _tally(res, "witness")
        for op in (witness.shortest_cycle, witness.odd_closed_walk):
            try:
                op(p)
                _fail(res, "witness", f"{op.__name__} should reject a matching")
            except DegenerateClass:
                _tally(res, "witness")
        return

    a0 = tuple(range(p.k))
    for x in intersection_range(p):
        a, b = witness.canonical_pair(p, x)
        w = witness.geodesic(p, a, b)
        _tally(res, "witness")
        if not witness.verify_walk(p, w):
            _fail(res, "witness", f"geodesic at x={x} fails verify_walk")
        elif w.claimed_length != rep.distance_profile[x]:
            _fail(res, "witness",
                  f"geodesic at x={x} has length {w.claimed_length}, formula {rep.distance_profile[x]}")

        # Common-neighbor construction against raw adjacency lists.
        ra, rb = graphio.rank(p, a), graphio.rank(p, b)
        shared = np.intersect1d(g.neighbors(ra), g.neighbors(rb))
        claims = formulas.has_common_neighbor(p, x)
        _tally(res, "common_neighbor")
        if claims != bool(shared.size):
            _fail(res, "common_neighbor", f"x={x}: formula {claims}, oracle {bool(shared.size)}")
        if claims:
            c = witness.common_neighbor(p, a, b)
            if len(set(c) & set(a)) != p.i or len(set(c) & set(b)) != p.i:
                _fail(res, "common_neighbor", f"x={x}: constructed witness not adjacent to both")
            elif graphio.rank(p, c) not in shared:
                _fail(res, "common_neighbor", f"x={x}: witness missing from adjacency lists")
        else:
            try:
                witness.common_neighbor(p, a, b)
                _fail(res, "common_neighbor", f"x={x}: expected NoCommonNeighbor")
            except NoCommonNeighbor:
                pass

    cyc = witness.shortest_cycle(p)
    _tally(res, "witness")
    if not witness.verify_walk(p, cyc) or cyc.claimed_length != rep.girth:
        _fail(res, "witness", f"shortest_cycle length {cyc.claimed_length} != girth {rep.girth}")
    ow = witness.odd_closed_walk(p)
    _tally(res, "witness")
    if not witness.verify_walk(p, ow) or ow.claimed_length != rep.odd_girth:
        _fail(res, "witness", f"odd walk length {ow.claimed_length} != odd girth {rep.odd_girth}")
    if witness.geodesic(p, a0, a0).claimed_length != 0:
        _fail(res, "witness", "self geodesic not length 0")


def _check_max_route(res: TripleResult, p: Parameters) -> None:
    q = normalize(p)
    if q.k - q.i < 2:
        return
    d = delta(q)
    exhaustive = max(
        min(2 * formulas.ceil_div(q.k - x, d), 2 * formulas.ceil_div(x - q.i, d) + 1)
        for x in range(q.i + 1, q.k + 1)
    )
    _tally(res, "max_route")
    if exhaustive != formulas.max_route_distance(q):
        _fail(res, "max_route",
              f"exhaustive {exhaustive} != closed form {formulas.max_route_distance(q)}")


def _check_rank_roundtrip(res: TripleResult, p: Parameters, n: int) -> None:
    rng = np.random.default_rng([p.v, p.k, p.i, 977])
    samples = set(range(n)) if n <= 512 else {0, n - 1, *map(int, rng.integers(0, n, 64))}
    for r in samples:
        if graphio.rank(p, graphio.unrank(p, r)) != r:
            _fail(res, "rank_roundtrip", f"rank {r} does not round-trip")
    _tally(res, "rank_roundtrip", len(samples))
    for bad in (-1, n):
        try:
            graphio.unrank(p, bad)
            _fail(res, "rank_roundtrip", f"unrank({bad}) should raise")
        except OutOfRange:
            pass


def check_triple(v: int, k: int, i: int, max_vertices: int = oracle.DEFAULT_VERTEX_BUDGET) -> TripleResult:
    """Run every per-triple check; never raises, failures are recorded."""
    p = make_parameters(v, k, i)
    n = math.comb(v, k)
    res = TripleResult(v, k, i, n, p.graph_class.value)
    try:
        _run_checks(res, p, max_vertices)
    except Exception as exc:  # a crash is a failed triple, not a crashed sweep
        _fail(res, "internal", f"{type(exc).__name__}: {exc}")
    return res


def _check_pairing(res: TripleResult, g: oracle.ExplicitGraph) -> None:
    """A matching's adjacency rows: one bit each, partners an involution."""
    n = g.n
    # 1-regular: each row's largest byte holds one bit, and no other byte
    # of adj is nonzero.
    cols = g.adj.argmax(axis=1)
    byte = g.adj[np.arange(n), cols]
    if (np.bitwise_count(byte) != 1).any() or np.count_nonzero(g.adj) != n:
        _fail(res, "matching", "not 1-regular")
        return
    # sole neighbor of each vertex: its byte's offset plus the bit's
    partner = cols * 8 + np.unpackbits(byte[:, None], axis=1).argmax(axis=1)
    if not np.array_equal(partner[partner], np.arange(n)):
        _fail(res, "matching", "pairing is not an involution")


def _run_checks(res: TripleResult, p: Parameters, max_vertices: int) -> None:
    rep = invariant_report(p)
    g = oracle.build_graph(p, max_vertices)
    n = g.n

    # Degree regularity is asserted during the build; record it.
    _tally(res, "degree", n)

    # How many BFS sources: enough that every intersection class except
    # x = k (identical pairs) accumulates MIN_PAIR_SAMPLES sampled pairs,
    # where that many distinct pairs exist at all.
    class_sizes = {
        x: math.comb(p.k, x) * math.comb(p.v - p.k, p.k - x)
        for x in intersection_range(p)
    }
    thin = [s for x, s in class_sizes.items() if x != p.k and 0 < s]
    many = n <= SMALL_GRAPH_FULL_CHECK or (thin and min(thin) * 3 < MIN_PAIR_SAMPLES)
    want_sources = min(n, MIN_PAIR_SAMPLES) if many else 4
    searches = [oracle.search(g, s) for s in oracle._sources(p.v, p.k, p.i, n, want_sources)]

    # Formula versus measured invariants, each measured identically from
    # every source (vertex transitivity).
    try:
        measured = oracle.report_from_graph(g, searches)
        # Counted as girth, odd girth and diameter from four sources, as
        # perfbench/expected/sweep.json records them, though all are agreed.
        _tally(res, "transitivity", 3 * min(4, g.n))
    except AssertionError as exc:
        _fail(res, "transitivity", str(exc))
        return

    profile = measured.distance_profile
    res.oracle_girth, res.oracle_odd_girth = measured.girth, measured.odd_girth
    res.oracle_diameter, res.oracle_profile = measured.diameter, profile

    for name in ("girth", "odd_girth", "diameter"):
        want, got = getattr(rep, name), getattr(measured, name)
        _tally(res, name)
        if want != got:
            _fail(res, name, f"formula {want}, oracle {got}")
    if not p.is_degenerate and p.graph_class is not GraphClass.MATCHING:
        peak = max(rep.distance_profile.values())
        if rep.diameter != peak:
            _fail(res, "diameter", f"diameter {rep.diameter} != profile max {peak}")

    _tally(res, "distance_profile", len(profile))
    if rep.distance_profile != profile:
        _fail(res, "distance_profile", f"formula {rep.distance_profile}, oracle {profile}")

    # Sampled pairs: each (source, vertex) pair is one sample for its class;
    # report_from_graph has agreed every source's profile.
    for x, size in class_sizes.items():
        if x == p.k:
            continue  # only identical pairs; distance 0 holds per source by construction
        sampled, wanted = size * len(searches), min(MIN_PAIR_SAMPLES, size * n)
        _tally(res, "pair_sampling", min(sampled, wanted))
        if sampled < wanted:
            _fail(res, "pair_sampling", f"x={x}: only {sampled} sampled pairs")

    for s in searches:
        _check_lower_bound(res, p, s.dist, oracle.intersection_with(g, s.source))

    # Distance-2 criterion: beyond adjacency, two vertices are at distance
    # exactly 2 iff they have a common neighbor.
    if not p.is_degenerate:
        q = normalize(p)
        shift = 2 * p.k - p.v if not p.is_normalized else 0
        for x, dval in profile.items():
            if dval != 0 and dval != 1:
                _tally(res, "common_neighbor")
                if (dval == 2) != formulas.has_common_neighbor(q, x - shift):
                    _fail(res, "common_neighbor", f"x={x}: distance {dval} contradicts predicate")

    if p.graph_class is GraphClass.MATCHING:
        _tally(res, "matching")
        _check_pairing(res, g)
        if p.k >= 2 and rep.diameter != INFINITE:
            _fail(res, "matching", "diameter should be infinite")
        if p.k >= 2 and measured.connected:
            _fail(res, "matching", "oracle says connected")
        if rep.girth is not None or rep.odd_girth is not None:
            _fail(res, "matching", "girth/odd girth should be undefined")

    # Witnesses for v < 2k are checked in tests/test_witness.py; checking them
    # here would change the per-triple tallies in perfbench/expected/sweep.json.
    if p.is_normalized and not p.is_degenerate:
        _check_witnesses(res, p, rep, g)
    if not p.is_degenerate and p.graph_class is not GraphClass.MATCHING:
        _check_max_route(res, p)
    _check_rank_roundtrip(res, p, n)


def check_complements(results: list[TripleResult]) -> tuple[int, list[str]]:
    """Cross-triple check of the complement isomorphism.

    Every non-degenerate triple with v < 2k must agree with its normalized
    partner on girth, odd girth, and diameter, with distance profiles
    matching under the index shift x -> x - (2k - v).
    """
    by_triple = {r.triple: r for r in results}
    checked, failures = 0, []
    for r in results:
        v, k, i = r.triple
        if v >= 2 * k or r.graph_class in ("edgeless", "empty_vertex_set"):
            continue
        q = normalize(make_parameters(v, k, i))
        partner = by_triple.get((q.v, q.k, q.i))
        if partner is None:
            failures.append(f"J({v},{k},{i}): normalized partner missing from sweep")
            continue
        checked += 1
        same = (
            r.oracle_girth == partner.oracle_girth
            and r.oracle_odd_girth == partner.oracle_odd_girth
            and r.oracle_diameter == partner.oracle_diameter
        )
        shift = 2 * k - v
        profile_ok = all(
            r.oracle_profile[x] == partner.oracle_profile.get(x - shift)
            for x in r.oracle_profile
        )
        if not (same and profile_ok):
            failures.append(f"J({v},{k},{i}) disagrees with its complement form")
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


def _worker(args: tuple[int, int, int, int]) -> TripleResult:
    return check_triple(*args)


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
    jobs = [(v, k, i, cfg.max_vertices) for v, k, i in triples]
    results: list[TripleResult] = []
    if cfg.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            for r in pool.map(_worker, jobs, chunksize=8):
                results.append(r)
                if progress:
                    progress(r)
    else:
        for job in jobs:
            r = _worker(job)
            results.append(r)
            if progress:
                progress(r)
    results.sort(key=lambda r: r.triple)
    checked, failures = check_complements(results)
    if_checked, if_failures = check_interfaces(cfg)
    return SweepOutcome(results, checked, failures, if_checked, if_failures)
