"""Closed-form invariants of J(v,k,i): girth, odd girth, distance, diameter.

Every closed form is total over accepted triples.  The paper states them
for v >= 2k, but distance, odd girth, common neighbors and max route read
only delta = v - 2k + 2i, k - x, x - i and k - i, which complementation
(v,k,i,x) -> (v, v-k, v-2k+i, x-(2k-v)) leaves unchanged, so they hold
verbatim for v < 2k.  Only girth and diameter read normalize(p): the
(2k+1,k,0) exception, i = 0, 3k - 2i and k/(k-i) are not invariant.
Infinite distances are math.inf, undefined cycle lengths are None.
"""

from __future__ import annotations

import math

from .errors import DegenerateClass, Unsupported
from .params import (
    INFINITE,
    GraphClass,
    InvariantReport,
    Parameters,
    ceil_div,
    delta,
    intersection_range,
    intersection_size,
    make_parameters,
    normalize,
)


def has_common_neighbor(p: Parameters, x: int) -> bool:
    """Whether two vertices with intersection x share a neighbor.

    Holds exactly when x >= max(k - delta, 2i - k).
    """
    if p.is_degenerate:
        raise DegenerateClass(f"{p} has no edges")
    return intersection_size(p, x) >= max(p.k - delta(p), 2 * p.i - p.k)


def girth(p: Parameters) -> int | None:
    """Length of the shortest cycle; None when the graph is acyclic or empty.

    3 when v >= 3(k-i); otherwise 4, except that (5,2,0) has girth 5 and
    the remaining (2k+1,k,0) triples have girth 6, read on normalize(p).
    """
    if p.is_degenerate or p.graph_class is GraphClass.MATCHING:
        return None
    q = normalize(p)
    v, k, i = q.v, q.k, q.i
    if v >= 3 * (k - i):
        return 3
    if (v, k, i) != (2 * k + 1, k, 0):
        return 4
    if (v, k, i) == (5, 2, 0):
        return 5
    return 6  # (2k+1, k, 0) with k > 2; k <= 2 is caught above


def odd_girth(p: Parameters) -> int | None:
    """Length of the shortest odd closed walk: 2*ceil((k-i)/delta) + 1.

    None for matchings and degenerate classes (bipartite or cycle-free).
    """
    if p.is_degenerate or p.graph_class is GraphClass.MATCHING:
        return None
    return 2 * ceil_div(p.k - p.i, delta(p)) + 1


def distance_by_intersection(p: Parameters, x: int):
    """Distance between any two vertices A, B with |A ∩ B| = x.

    Well defined because the symmetric group on the ground set acts
    transitively on ordered pairs with fixed |A ∩ B|.  Returns
    math.inf for unreachable pairs (matchings only).
    """
    if p.is_degenerate:
        raise DegenerateClass(f"{p} has no distance function")
    intersection_size(p, x)
    if p.graph_class is GraphClass.MATCHING:
        if x == p.k:
            return 0
        return 1 if x == 0 else INFINITE
    k, i, d = p.k, p.i, delta(p)
    if x < min(i, k - d):
        return 3
    if x < i:  # here k - delta <= x, so one hop shrinks the gap by k - i
        return ceil_div(k - x, k - i)
    return min(2 * ceil_div(k - x, d), 2 * ceil_div(x - i, d) + 1)


def diameter(p: Parameters):
    """Largest distance between two vertices; math.inf when disconnected.
    Its cases are read on normalize(p)."""
    if p.is_degenerate:
        raise DegenerateClass(f"{p} has no diameter")
    if p.graph_class is GraphClass.MATCHING:
        # C(2k,k)/2 disjoint edges; a single edge (k = 1) is connected.
        return 1 if p.k == 1 else INFINITE
    q = normalize(p)
    v, k, i = q.v, q.k, q.i
    if v < 3 * (k - i) - 1 or i == 0:
        return ceil_div(k - i - 1, delta(p)) + 1
    if v < 3 * k - 2 * i:
        return 3
    return ceil_div(k, k - i)


def max_route_distance(p: Parameters) -> int:
    """Maximum of the two-route distance bound over x in {i+1, ..., k}.

    Equals ceil((k-i-1)/delta) + 1, which is also the exhaustive maximum of
    min(2*ceil((k-x)/delta), 2*ceil((x-i)/delta) + 1) over that interval.
    Requires k > i + 1 (otherwise the interval collapses).
    """
    if p.is_degenerate or p.graph_class is GraphClass.MATCHING:
        raise DegenerateClass(f"{p} has no route-distance function")
    if p.k == p.i + 1:
        raise Unsupported("defined only for k > i + 1")
    return ceil_div(p.k - p.i - 1, delta(p)) + 1


def _degenerate_report(p: Parameters) -> InvariantReport:
    n = math.comb(p.v, p.k)
    profile: dict[int, int | float] = {x: INFINITE for x in intersection_range(p)}
    profile[p.k] = 0
    return InvariantReport(p, None, None, 0 if n == 1 else INFINITE, profile)


def invariant_report(p: Parameters) -> InvariantReport:
    """All invariants of J(v,k,i), total over every accepted triple."""
    if p.is_degenerate:
        return _degenerate_report(p)
    profile = {x: distance_by_intersection(p, x) for x in intersection_range(p)}
    return InvariantReport(p, girth(p), odd_girth(p), diameter(p), profile)


def report_for(v: int, k: int, i: int) -> InvariantReport:
    """Convenience wrapper: validate the triple and report on it."""
    return invariant_report(make_parameters(v, k, i))
