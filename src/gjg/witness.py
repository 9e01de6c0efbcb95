"""Explicit witnesses: common neighbors, geodesics, shortest cycles, odd walks.

Every construction works over the ground set {0,...,v-1} and picks the
lexicographically smallest eligible elements at each step, so identical
inputs always produce identical walks.  No construction reads a closed
form; the paper proves the lengths :mod:`gjg.formulas` states, and
verify_walk rechecks the walk axioms independently.

Every certificate is built by moving elements between the four parts
that a pair of vertices A, B cuts the ground set into: A - B, A ∩ B,
B - A and the outside of A ∪ B.  :func:`_split` is the one place that
computes them.

Constructions accept every non-degenerate triple through :func:`_lift`:
one with v < 2k is built on its normal form J(v, v-k, v-2k+i) and
complemented back, since complementing every vertex set preserves
adjacency.  Degenerate triples raise DegenerateClass from
:func:`gjg.params.normalize`, and an end point that
:func:`gjg.params.vertex` rejects raises InvalidSet; end points are
never sorted for the caller.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

from .errors import DegenerateClass, Disconnected, InvalidSet, NoCommonNeighbor
from .params import GraphClass, Parameters, ceil_div, delta, intersection_size, is_sequence, normalize, vertex

VertexSet = tuple[int, ...]


class WalkKind(enum.Enum):
    PATH = "path"
    CYCLE = "cycle"
    CLOSED_WALK = "closed_walk"


class Walk(NamedTuple):
    """A vertex sequence with a claimed kind and edge count."""

    vertices: tuple[VertexSet, ...]
    kind: WalkKind
    claimed_length: int


def _ground_complement(p: Parameters, s: Sequence[int]) -> list[int]:
    # range(v) minus s, O(v): the lift and complement_walk read it, for v < 2k.
    used = set(s)
    return [e for e in range(p.v) if e not in used]


def _lift(p: Parameters, build, *ends: Sequence[int]):
    """build(q, *ends) on the normal form q of p, every end checked by
    :func:`gjg.params.vertex` in p.  For v < 2k the ends are complemented
    into q and the result, a vertex set or a Walk, back out of it."""
    q = normalize(p)
    ends = [vertex(p, e) for e in ends]
    if q is p:
        return build(p, *ends)
    out = build(q, *(tuple(_ground_complement(p, e)) for e in ends))
    return complement_walk(p, out) if isinstance(out, Walk) else tuple(_ground_complement(p, out))


def _split(p: Parameters, A: Sequence[int], B: Sequence[int]) -> tuple[list[int], ...]:
    """(A - B, A ∩ B, B - A, outside A ∪ B), each ascending.

    The outside is cut short to its smallest elements below
    |A ∪ B| + k: a prefix of the whole with at least min(k, its size)
    elements, so a walk costs O(k) per vertex at any v.  No construction
    takes more than k outside elements, and the two that take the whole
    outside do so only when it has at most k, when the prefix is all of
    it; so every walk is the one the whole outside gives."""
    sa, sb = set(A), set(B)
    outside = [e for e in range(min(p.v, len(sa | sb) + p.k)) if e not in sa and e not in sb]
    return sorted(sa - sb), sorted(sa & sb), sorted(sb - sa), outside


def verify_walk(p: Parameters, w: Walk) -> bool:
    """Independent check of the walk axioms; never raises.

    w must be a Walk whose vertices pass :func:`gjg.params.is_sequence`,
    each vertex must pass :func:`gjg.params.vertex` (a rejected one makes
    the walk False), and consecutive vertices must intersect in exactly i
    elements; paths have distinct vertices; cycles are closed with
    distinct interior and at least 3 edges; closed walks are merely
    closed.  The kind must be a WalkKind and the claimed length an int
    (bools are not) equal to the number of edges traversed.
    """
    if not isinstance(w, Walk) or not is_sequence(w.vertices):
        return False
    try:
        vs = [vertex(p, s) for s in w.vertices]
    except InvalidSet:
        return False
    if not vs or type(w.claimed_length) is not int or w.claimed_length != len(vs) - 1:
        return False
    # One set alive per step: a set per vertex held for the whole walk
    # adds a garbage-collected container per vertex.
    if any(len(set(m).intersection(n)) != p.i for m, n in zip(vs, vs[1:])):
        return False
    if w.kind is WalkKind.PATH:
        return len(set(vs)) == len(vs)
    if w.kind is WalkKind.CYCLE:
        interior = vs[:-1]
        return vs[0] == vs[-1] and len(vs) >= 4 and len(set(interior)) == len(interior)
    return w.kind is WalkKind.CLOSED_WALK and vs[0] == vs[-1]


def common_neighbor(p: Parameters, a: Sequence[int], b: Sequence[int]) -> VertexSet:
    """A vertex adjacent to both a and b, when one exists.

    Takes s = max(0, i+x-k, 2i-k) elements inside a ∩ b, i-s from each
    private side, and fills up from outside a ∪ b (NoCommonNeighbor when a
    part is too small); any feasible s would do, the lowest is the choice.
    """
    return _lift(p, _common_neighbor, a, b)


def _common_neighbor(p: Parameters, A: Sequence[int], B: Sequence[int]) -> VertexSet:
    # common_neighbor on a normalized triple, for vertex sets.
    only_a, shared, only_b, outside = _split(p, A, B)
    k, i, x = p.k, p.i, len(shared)
    s = max(0, i + x - k, 2 * i - k)
    if x < s or k - x < i - s or len(outside) < k - 2 * i + s:
        raise NoCommonNeighbor(f"|A ∩ B| = {x} < max(k - delta, 2i - k) in {p}")
    picked = shared[:s] + only_a[: i - s] + only_b[: i - s] + outside[: k - 2 * i + s]
    return tuple(sorted(picked))


def _canonical_adjacent_pair(p: Parameters) -> tuple[VertexSet, VertexSet]:
    # {0..k-1} and the shift sharing exactly the top i elements.
    k, i = p.k, p.i
    return tuple(range(k)), tuple(range(k - i, 2 * k - i))


def canonical_pair(p: Parameters, x: int) -> tuple[VertexSet, VertexSet]:
    """The standard pair with intersection x: {0..k-1} vs {0..x-1} ∪ {k..2k-x-1}.

    Raises OutOfRange unless x passes :func:`gjg.params.intersection_size`."""
    k, x = p.k, intersection_size(p, x)
    return tuple(range(k)), tuple(list(range(x)) + list(range(k, 2 * k - x)))


def _even_route(p: Parameters, A: VertexSet, B: VertexSet) -> list[VertexSet]:
    """A path of length 2*ceil((k-x)/delta) from A to B, valid when that
    is the distance and x = |A ∩ B| > i, up to the vertex two steps before
    B: that vertex meets B in at least k - delta elements, and one common
    neighbor of the two closes the path.

    Alternates between vertices built on the outside of A ∪ B and on the
    core A ∩ B, shifting delta elements from A's private part to B's per
    round trip.
    """
    k, i, d = p.k, p.i, delta(p)
    path = [A]
    if (rounds := (k - len(set(A) & set(B)) - 1) // d) > 0:
        only_a, shared, only_b, outside = _split(p, A, B)
        for j in range(1, rounds + 1):
            odd_step = outside + only_a[: (j - 1) * d + i] + only_b[j * d - i :]
            even_step = shared + only_b[: j * d] + only_a[j * d :]
            path.append(tuple(sorted(odd_step)))
            path.append(tuple(sorted(even_step)))
    return path


def geodesic(p: Parameters, a: Sequence[int], b: Sequence[int]) -> Walk:
    """Shortest path from a to b, chosen by |a ∩ b| without a closed form.

    For intersections above i the route is the shorter of the even
    construction and one edge followed by the even construction from a
    swapped start; below i a chain of (k-i)-element exchanges, or a
    single detour vertex when the distance is 3.  Every route of length 2
    or more is built up to the vertex two steps before b, which meets b in
    at least max(k - delta, 2i - k) elements, and ends through one common
    neighbor of that vertex and b.
    """
    return _lift(p, _geodesic, a, b)


def _geodesic(p: Parameters, A: VertexSet, B: VertexSet) -> Walk:
    # geodesic on a normalized triple, for vertex sets.
    x = len(set(A) & set(B))
    k, i, d = p.k, p.i, delta(p)

    if x == k:
        return Walk((A,), WalkKind.PATH, 0)
    if x == i:
        return Walk((A, B), WalkKind.PATH, 1)
    if p.graph_class is GraphClass.MATCHING:
        raise Disconnected(f"{p}: vertices with 0 < |A ∩ B| < k lie in different edges")

    if x > i and ceil_div(k - x, d) <= ceil_div(x - i, d):
        # The even route's 2*ceil((k-x)/delta) edges beat the
        # 2*ceil((x-i)/delta) + 1 of one edge to a swapped start.
        path = _even_route(p, A, B)
    else:
        only_a, shared, only_b, outside = _split(p, A, B)
        if x > i:
            # Swap x - i core elements for outside ones: the new start is
            # adjacent to A and closer to B along the even route.
            swap = x - i
            start = tuple(sorted(only_b + shared[swap:] + outside[:swap]))
            path = [A] + _even_route(p, start, B)
        elif x < k - d:
            # Distance 3: detour raising the overlap with B to k - i + x.
            path = [A, tuple(sorted(only_a[: i - x] + shared + only_b[: k - i]))]
        else:
            # Replace one (k-i)-block of A's private part per step; at
            # distance 2 no block moves.
            path = [A] + [tuple(sorted(only_b[: j * (k - i)] + only_a[j * (k - i) :] + shared))
                          for j in range(1, ceil_div(k - x, k - i) - 1)]
    path += [_common_neighbor(p, path[-1], B), B]
    return Walk(tuple(path), WalkKind.PATH, len(path) - 1)


def _verified(p: Parameters, build, failure: str) -> Walk:
    """build lifted to p by :func:`_lift`, checked once by verify_walk in
    p; AssertionError, failure followed by " for p", when the check fails."""
    w = _lift(p, build)
    if not verify_walk(p, w):
        raise AssertionError(f"{failure} for {p}")
    return w


def _six_cycle(p: Parameters) -> list[VertexSet]:
    # Explicit 6-cycle in J(2k+1, k, 0) for k >= 3: consecutive sets are
    # disjoint, alternating between low and high halves of the ground set.
    k = p.k
    lo = tuple(range(k - 1))
    hi = tuple(range(k, 2 * k - 1))
    return [tuple(range(k)), tuple(range(k, 2 * k)), lo + (2 * k,),
            tuple(range(k - 1, 2 * k - 1)), lo + (2 * k - 1,), hi + (2 * k,)]


def _triangle(p: Parameters) -> list[VertexSet] | None:
    # The canonical edge and a common neighbor of its ends, where one exists.
    A, B = _canonical_adjacent_pair(p)
    try:
        return [A, B, _common_neighbor(p, A, B)]
    except NoCommonNeighbor:
        return None


def shortest_cycle(p: Parameters) -> Walk:
    """A shortest cycle, closed vertex repeated at the end: a triangle on
    the canonical edge where its ends have a common neighbor, else the
    5-cycle of (5,2,0), a 6-cycle of another odd graph, or a 4-cycle."""
    return _verified(p, _shortest_cycle, "shortest_cycle built an invalid cycle")


def _shortest_cycle(p: Parameters) -> Walk:
    # shortest_cycle on a normalized triple, unverified.
    if p.graph_class is GraphClass.MATCHING:
        raise DegenerateClass(f"{p} ({p.graph_class.value}) is acyclic or empty")
    k, i = p.k, p.i

    if (triangle := _triangle(p)) is not None:
        cyc = triangle
    elif p.graph_class is GraphClass.ODD_GRAPH:
        # At (5,2,0) the minimum odd walk is a 5-cycle.
        cyc = list(_odd_closed_walk(p).vertices[:-1]) if k == 2 else _six_cycle(p)
    elif i >= 2 or p.v > 2 * k + 1:
        # Four singletons around two alternating (k-i-1)-blocks and a core.
        blocks = [list(range(4, 3 + k - i)), list(range(3 + k - i, 2 + 2 * (k - i)))]
        core = list(range(2 + 2 * (k - i), 2 + 2 * (k - i) + i))
        cyc = [tuple(sorted([j] + blocks[j % 2] + core)) for j in range(4)]
    else:  # i == 1: consecutive pairs of 0..3 around two alternating blocks
        blocks = [list(range(4, 2 + k)), list(range(2 + k, 2 * k))]
        cyc = [tuple(sorted([j, (j + 1) % 4] + blocks[j % 2])) for j in range(4)]

    cyc.append(cyc[0])
    return Walk(tuple(cyc), WalkKind.CYCLE, len(cyc) - 1)


def odd_closed_walk(p: Parameters) -> Walk:
    """A shortest odd closed walk starting and ending at {0..k-1} (for
    v < 2k, at the complement of the normal form's start).

    A triangle where the canonical edge's ends have a common neighbor.
    Else odd graphs (2k+1,k,0) walk A -> B -> C -> A where the three sets
    pairwise intersect in (d, d, 0) elements for k = 2d or 2d+1, joined by
    geodesics of length k each plus one edge; the others pick a third
    vertex equidistant from both ends of an edge at distance
    r = ceil((k-i)/delta) and glue the two geodesics.
    """
    return _verified(p, _odd_closed_walk, "odd_closed_walk built an invalid walk")


def _odd_closed_walk(p: Parameters) -> Walk:
    # odd_closed_walk on a normalized triple, unverified.
    if p.graph_class is GraphClass.MATCHING:
        raise DegenerateClass(f"{p} ({p.graph_class.value}) has no odd closed walk")
    k, i, d = p.k, p.i, delta(p)

    if (triangle := _triangle(p)) is not None:
        vertices = (*triangle, triangle[0])
    elif p.graph_class is GraphClass.ODD_GRAPH:
        A, B, C = (tuple(range(s, s + k)) for s in (0, ceil_div(k, 2), k + k % 2))
        vertices = geodesic(p, A, B).vertices + geodesic(p, B, C).vertices[1:] + (A,)
    else:
        r = ceil_div(k - i, d)
        A, B = _canonical_adjacent_pair(p)
        only_a, shared, only_b, outside = _split(p, A, B)
        if r % 2 == 1:
            doubled = k + i - d  # target overlaps (floor, ceil) of (k+i-delta)/2
            take_a, take_b = doubled // 2, doubled - doubled // 2
        else:
            doubled = k + i
            take_a, take_b = doubled // 2 - i, doubled - doubled // 2 - i
        core = outside if r % 2 == 1 else shared
        apex = tuple(sorted(only_a[:take_a] + only_b[:take_b] + core))
        leg_a = geodesic(p, A, apex)
        leg_b = geodesic(p, B, apex)
        if not leg_a.claimed_length == leg_b.claimed_length == r:
            raise AssertionError(f"legs of length {leg_a.claimed_length} and "
                                 f"{leg_b.claimed_length}, expected {r}")
        vertices = leg_a.vertices + tuple(reversed(leg_b.vertices))[1:] + (A,)

    return Walk(vertices, WalkKind.CLOSED_WALK, len(vertices) - 1)


def complement_walk(p: Parameters, w: Walk) -> Walk:
    """Map a walk in J(v, v-k, v-2k+i) back to J(v,k,i) by complementing
    every vertex set; the complement isomorphism preserves adjacency."""
    vertices = tuple(tuple(_ground_complement(p, s)) for s in w.vertices)
    return Walk(vertices, w.kind, w.claimed_length)
