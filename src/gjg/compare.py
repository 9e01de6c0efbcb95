"""The report block: every check that reads a measured report and no graph.

``check_report`` takes a report and a source count: the one comparison
with ``invariant_report``, then the lower bounds, the common-neighbour
lemma, the witnesses and the maximum route, each over the classes the
report measured and each reading at most its own lemma's closed form,
so a wrong closed form fails one line, and any ground truth that gives
a report (``oracle.report_from_graph`` and ``scheme.scheme_report``
among them) can pass it.  The lemma is read once per class and compared
with the report: at x = k with True, at x = i with a girth of 3,
elsewhere with a distance of 2.  A certificate whose construction
raises fails its own witness line.  Witnesses are checked here only for
v >= 2k; ``tests/test_witness.py`` covers the lifted constructions for
v < 2k.  ``check_complements`` compares the reports of the triples
v < 2k with those of their normal forms.  The module reads no graph, so
it loads neither numpy nor the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formulas, witness
from .errors import DegenerateClass, Disconnected, GJGError
from .formulas import invariant_report
from .params import (INFINITE, GraphClass, InvariantReport, Parameters, class_size, delta,
                     intersection_range, make_parameters, normalize)


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
    measured: InvariantReport | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.v, self.k, self.i)


def check(res: TripleResult, category: str, ok: bool, message: str, count: int = 1) -> None:
    """Tally count checks of category (none for count=0) and record
    message as a failure unless ok."""
    if count:
        res.checks[category] = res.checks.get(category, 0) + count
    if not ok:
        res.failures.append(f"{category}: {message}")


def raises(kind: type[Exception], fn, *args) -> bool:
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


def _check_lower_bound(res: TripleResult, p: Parameters, profile: dict, sources: int) -> None:
    """Path-length lower bounds on the agreed profile: a shortest path of
    length 2p needs p >= ceil((k-x)/delta), of length 2p+1 needs
    p >= ceil((x-i)/delta).  Every vertex of class x lies at profile[x]
    from every source, so one check per class stands for its
    class_size(p, x) * sources (source, vertex) pairs."""
    d = delta(p)
    if d <= 0:
        return
    for x, dist in profile.items():
        if dist != INFINITE:
            half, odd = divmod(dist, 2)
            # ceil(a/d) as -(-a // d), which holds for a = x - i < 0 too
            need = -((p.i - x if odd else x - p.k) // d)
            check(res, "lower_bound", half >= need,
                  f"x={x}: distance {dist} needs {2 * need + odd}", count=class_size(p, x) * sources)


def _check_walk(res: TripleResult, p: Parameters, label: str, want, build, *ends) -> None:
    """One witness line: build(p, *ends) passes verify_walk at exactly the
    measured length want.  A construction that raises, by its own check
    or a domain error, fails this line and the triple's checks go on."""
    try:
        w = build(p, *ends)
    except (AssertionError, GJGError) as exc:
        check(res, "witness", False, f"{label}: {type(exc).__name__}: {exc}")
    else:
        check(res, "witness", witness.verify_walk(p, w) and w.claimed_length == want,
              f"{label} of length {w.claimed_length} fails verify_walk or measured {want}")


def _check_witnesses(res: TripleResult, p: Parameters, measured) -> None:
    """Geodesics at each measured class, shortest cycle and odd walk."""
    for x, want in measured.distance_profile.items():
        _check_walk(res, p, f"geodesic at x={x}", want, witness.geodesic, *witness.canonical_pair(p, x))
    _check_walk(res, p, "shortest_cycle", measured.girth, witness.shortest_cycle)
    _check_walk(res, p, "odd walk", measured.odd_girth, witness.odd_closed_walk)


def _check_max_route(res: TripleResult, p: Parameters, profile: dict) -> None:
    """Closed-form maximum over x = i+1 .. k against the largest measured distance there."""
    if p.k - p.i < 2:
        return
    peak = max(d for x, d in profile.items() if x > p.i)
    closed = formulas.max_route_distance(p)
    check(res, "max_route", peak == closed, f"measured {peak} != closed form {closed}")


def _check_matching(res: TripleResult, p: Parameters) -> None:
    """Witnesses on a matching (2k,k,0), the class the paper excludes: its
    edges, partial overlaps and cycles.  The comparison checks its report,
    infinite distances and all, and the sweep's graph block its adjacency."""
    _check_walk(res, p, "matching edge geodesic", 1, witness.geodesic, *witness.canonical_pair(p, 0))
    if p.k >= 2:
        check(res, "witness", raises(Disconnected, witness.geodesic, p, *witness.canonical_pair(p, 1)),
              "expected Disconnected for partial overlap")
    for op in (witness.shortest_cycle, witness.odd_closed_walk):
        check(res, "witness", raises(DegenerateClass, op, p), f"{op.__name__} should reject a matching")


def check_report(res: TripleResult, report: InvariantReport, sources: int) -> None:
    """Every check that reads a measured report and no graph: the one
    comparison with the closed-form report, the lower bounds, the
    common-neighbour lemma, then a matching's report checks, or the
    witnesses (normal forms only) and the maximum route, each over the
    classes the report measured for report.params.  The lemma is compared
    at x = k with True, at x = i with the report's girth being 3, and
    elsewhere with its distance being 2; only classes at a distance
    other than 0 and 1 are tallied.  Each class x stands for class_size(p, x) * sources (source,
    vertex) pairs: a graph's agreed report passes oracle.source_count(p),
    the quotient 1."""
    p, profile = report.params, report.distance_profile
    # invariant_report is read here once; each lemma's closed form only by its own check.
    got = _compared(report)
    for name, want in _compared(invariant_report(p)).items():
        check(res, name, want == got[name], f"formula {want}, oracle {got[name]}",
              count=len(profile) if name == "distance_profile" else 1)
    _check_lower_bound(res, p, profile, sources)
    if p.is_degenerate:
        return
    # A vertex shares its neighbours with itself, an edge lies on a
    # triangle iff the girth is 3 (edge transitivity), and beyond adjacency
    # two vertices are at distance exactly 2 iff they share a neighbour.
    for x, dval in profile.items():
        shares = True if x == p.k else report.girth == 3 if x == p.i else dval == 2
        check(res, "common_neighbor", shares == formulas.has_common_neighbor(p, x),
              f"x={x}: {f'girth {report.girth}' if x == p.i else f'distance {dval}'} contradicts predicate",
              count=int(dval != 0 and dval != 1))
    if p.graph_class is GraphClass.MATCHING:
        _check_matching(res, p)
    else:
        # Witnesses for v < 2k are checked in tests/test_witness.py; here they
        # would change the per-triple tallies in perfbench/expected/sweep.json.
        if p.is_normalized:
            _check_witnesses(res, p, report)
        _check_max_route(res, p, profile)


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
