"""Brute-force ground truth: explicit J(v,k,i) graphs measured by search.

Nothing here consults the closed-form module; girth, odd girth, diameter,
and distances come from BFS on an explicitly materialized graph.  Vertices
are bitmasks over ground sets of at most 64 elements, in colex rank order
by the colex recurrence; the family, with the packed set of vertices that
contain each element, is derived once per (v, k) and shared by every i.
Adjacency is one packed bit matrix: row u has bit w set when |S_u ∩ S_w|
equals i.  Row u counts, for every w at once, how many elements of S_u or
of range(v) ∖ S_u, whichever is smaller, lie in S_w; no formula is
consulted.  Counting over S_u keeps count i; counting over its complement
keeps count k - i, because |S_w ∖ S_u| = k - |S_u ∩ S_w|.  Rows with no
possible partner (i = k, or a target beyond v - k: the edgeless triples
i < 2k - v) are zero and not counted at all.  Every search works on the
rows directly, a BFS level being the OR of the frontier's rows.

Single-source shortcuts (one BFS for distances, girth, odd girth) are
mathematically justified because the symmetric group on the ground set
acts transitively on vertices; since the point of this module is
independence, every such value is still cross-checked from randomly
chosen extra sources.  One BFS per source (``search``) measures all
of them; the caller holds the searches, and a built graph never changes.
Distances come from one measurement, the profile: BFS from a source to
every vertex, a function of the size of their intersection.  The
diameter is the profile's largest distance, every class being non-empty.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, Unsupported
from .params import INFINITE, Parameters, intersection_range, intersection_size, rank_index

DEFAULT_VERTEX_BUDGET = 20_000
MAX_GROUND_SET = 64

# Memory limit files of cgroup v2, then v1 (which reads a huge number when unlimited).
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")
# Elements per vectorized step: bits or bytes of packed rows.  A step pays a
# few dozen numpy calls, so larger is faster until its live arrays outgrow
# a core's L2 cache or lift a build's peak above 1.25 x its adjacency rows.
_SLAB = 1 << 17
_CROSS_CHECKS = 3  # extra random sources behind every per-source measurement


@dataclass(frozen=True)
class ExplicitGraph:
    """Materialized graph as packed adjacency bit rows.

    Rows follow colex rank order.  ``adj`` is (n, ceil(n/8)) uint8 in
    ``np.packbits`` order: bit w of row u is set when u and w are adjacent.
    ``masks`` holds vertex u's k-subset as a uint64 bitmask; it is the only
    record of the subsets (``graphio.unrank`` spells one out).
    Nothing about a graph changes after ``build_graph`` returns: both
    arrays are read-only, and a write raises ValueError.
    """

    params: Parameters
    n: int
    adj: np.ndarray       # (n, ceil(n/8)) uint8 packed adjacency rows
    masks: np.ndarray     # uint64 bitmask per vertex

    def neighbors(self, u: int) -> np.ndarray:
        """Ascending ranks of u's neighbors; OutOfRange unless
        ``params.rank_index`` accepts u."""
        return _unpacked(self.adj[rank_index(self.params, u)], self.n)

    @property
    def degree(self) -> int:
        # C(k,i) * C(v-k, k-i); at i = k the only candidate is the vertex
        # itself, excluded as a loop.
        p = self.params
        if p.i == p.k:
            return 0
        return math.comb(p.k, p.i) * math.comb(p.v - p.k, p.k - p.i)

    @property
    def edge_count(self) -> int:
        # build_graph has checked that every row holds degree bits.
        return self.n * self.degree // 2

    def edge_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Edges as (us, ws) array pairs with u < w, in (u, w) order, one
        slab of rows at a time.  Each slab is copied from its first
        diagonal byte and its lower triangle cleared: the bytes before row
        u's diagonal byte are zeroed and that byte keeps only the bits
        right of u, so every bit left is an edge u < w.  Only the nonzero
        bytes, found by one flat scan, are unpacked; dividing a byte's flat
        index by the slab width gives its row and column.  A slab holds at
        most _SLAB bytes of rows and, so that its index arrays and the
        export encoder's gather over each block stay small, _SLAB edges."""
        step = max(1, _SLAB // max(self.adj.shape[1], self.degree))
        for r0 in range(0, self.n, step):
            c0 = r0 >> 3  # the slab's first diagonal byte; nothing left of it is upper
            slab = self.adj[r0 : r0 + step, c0:].copy()
            u = np.arange(r0, r0 + slab.shape[0])
            d = (u >> 3) - c0  # row u's diagonal byte in the slab
            head = slab[:, : d[-1] + 1]  # the only columns holding a diagonal byte
            head[np.arange(head.shape[1]) < d[:, None]] = 0
            head[np.arange(u.size), d] &= (0x7F >> (u & 7)).astype(np.uint8)
            nz = np.flatnonzero(slab)
            # unpackbits gives 0 or 1 per bit, a valid bool, whose scan is fastest.
            bits = np.flatnonzero(np.unpackbits(slab.ravel()[nz]).view(bool))
            rows, cols = np.divmod(nz, slab.shape[1])
            at = bits >> 3  # each set bit's nonzero byte
            yield (rows + r0)[at], ((cols + c0) * 8)[at] + (bits & 7)


# One cached family per (v, k), shared by every i: (masks, member, elems, outside).
_FAMILY: dict = {}


def _family(v: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The k-subsets of range(v) in colex order, derived once per (v, k):
    ``masks[u]`` is S_u as a uint64 bitmask, ``member[e]`` the packed set
    {w : e ∈ S_w} as uint64 words in ``np.packbits`` order (pad bits clear),
    ``elems[u]`` lists S_u's elements, ascending, and ``outside[u]`` those
    of range(v) ∖ S_u, ascending.  Colex recurrence: the j-subsets of
    range(m+1) are those of range(m), then the (j-1)-subsets of range(m),
    a prefix of the size before, with bit m set."""
    if (record := _FAMILY.get((v, k))) is not None:
        return record
    masks = np.zeros(1, dtype=np.uint64)  # the one 0-subset
    for j in range(1, k + 1):  # a k-subset's j smallest elements lie in range(v-k+j)
        masks = np.concatenate([masks[: math.comb(m, j - 1)] | np.uint64(1 << m)
                                for m in range(j - 1, v - k + j)])
    n = masks.size
    member = np.zeros((v, (n + 63) // 64 * 8), dtype=np.uint8)
    for e in range(v):
        member[e, : (n + 7) // 8] = np.packbits(masks >> np.uint64(e) & np.uint64(1) != 0)
    # Row u lists S_u's elements, then the others, each ascending: column c
    # peels the lowest element left in S_u (c < k) or in its complement.
    both = np.empty((n, v), dtype=np.uint8)
    left = [masks.copy(), masks ^ np.uint64((1 << v) - 1)]
    for c in range(v):
        rest = left[c >= k]
        low = rest & (np.uint64(0) - rest)
        both[:, c] = np.bitwise_count(low - np.uint64(1))
        rest ^= low
    elems, outside = both[:, :k], both[:, k:]
    # The recurrence must agree with graphio's combinadic rank on every row.
    table = np.array([[math.comb(e, j) for j in range(1, k + 1)] for e in range(v)], dtype=np.int64)
    ranks = sum((table[elems[:, j], j] for j in range(k)), np.zeros(n, dtype=np.int64))
    if not np.array_equal(ranks, np.arange(n)):
        raise AssertionError(f"colex enumeration out of rank order for (v={v}, k={k})")
    record = masks, member.view(np.uint64), elems, outside
    for table in record:  # shared by every graph of the family
        table.flags.writeable = False
    _FAMILY.clear()  # keep at most one family resident; they can be large
    _FAMILY[(v, k)] = record
    return record


def _overlap_is(member: np.ndarray, elems: np.ndarray, i: int) -> np.ndarray:
    """Packed rows as uint64 words, one per row of elems: bit w is set when
    exactly i of those elements lie in S_w.  Precondition: elems has at
    least one column and 0 <= i <= its width; ``build_graph`` leaves every
    other row zero without calling here.

    The member rows of the elements are summed bit-sliced: plane b holds
    bit b of every column's count, and each member row is added by
    ripple-carry.  A plane is added once the count can reach its bit, so
    w elements need w.bit_length() planes.  A column's count is i when
    every plane agrees with the matching bit of i: the planes where i's
    bit is 0 are inverted in place, and the AND of all planes is the
    result.
    """
    planes: list[np.ndarray] = []
    spare = np.empty((elems.shape[0], member.shape[1]), dtype=np.uint64)
    for j in range(elems.shape[1]):
        carry = member[elems[:, j]]
        for plane in planes:
            np.bitwise_and(plane, carry, out=spare)  # carry out of this plane
            plane ^= carry
            carry, spare = spare, carry
        if len(planes) < (j + 1).bit_length():
            planes.append(carry)
        del carry  # spent unless it became a plane: free it before the next fetch
    hit = planes[0]
    for b, plane in enumerate(planes):
        if not (i >> b) & 1:
            np.invert(plane, out=plane)
        if b:
            hit &= plane
    return hit


def build_graph(p: Parameters, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> ExplicitGraph:
    """Materialize J(v,k,i): all C(v,k) vertices plus packed adjacency rows.

    Row u comes from counting, for every vertex w at once, how many
    elements of S_u or of range(v) ∖ S_u, whichever is smaller, lie in S_w
    (``_overlap_is``): set membership alone, with no formula consulted.
    When k <= v - k the side is S_u and the row keeps the columns whose
    count is i.  Otherwise the side is the complement, and since
    |S_w ∖ S_u| = k - |S_u ∩ S_w|, the row keeps count k - i.  Rows with
    no possible partner stay zero and are never counted: at i = k only S_u
    meets S_u in k elements, and the edgeless triples' target k - i
    exceeds the side's v - k.  Every counted row's degree is checked
    against C(k,i)*C(v-k,k-i) as it is built.

    Raises BudgetExceeded when C(v,k) > vertex_budget or the estimated
    bytes of the build exceed physical memory, and Unsupported for ground
    sets beyond 64 elements (vertices are 64-bit masks).
    """
    if p.v > MAX_GROUND_SET:
        raise Unsupported(f"ground set of {p.v} > {MAX_GROUND_SET} elements")
    n = math.comb(p.v, p.k)
    if n > vertex_budget:
        raise BudgetExceeded(f"{p} has {n} vertices, budget {vertex_budget}")
    # Refuse before allocating: adj, the family tables (masks, member rows,
    # the elements inside and outside each vertex) and the arrays live in
    # one step, each step rows of uint64 words: _overlap_is's count planes,
    # its spare and its carry.  The previous step's result and the spent
    # carry are freed before the next step's arrays are allocated.
    row = (n + 7) // 8
    step = max(1, _SLAB // row)
    planes = min(p.k, p.v - p.k).bit_length()
    step_bytes = min(n, step) * ((n + 63) // 64) * 8
    need = n * row + n * (8 + p.v + p.v) + step_bytes * (planes + 2)
    if need > (memory := _physical_memory()):
        raise BudgetExceeded(f"{p} needs about {need} bytes, physical memory {memory}")
    masks, member, elems, outside = _family(p.v, p.k)
    side, target = (elems, p.i) if p.k <= p.v - p.k else (outside, p.k - p.i)
    g = ExplicitGraph(p, n, np.zeros((n, row), dtype=np.uint8), masks)
    if p.i < p.k and target <= side.shape[1]:
        pad = np.uint8((0xFF00 >> (n % 8 or 8)) & 0xFF)  # last byte's bits below n
        for r0 in range(0, n, step):
            hit = _overlap_is(member, side[r0 : r0 + step], target)
            packed = hit.view(np.uint8)  # the same bits, in g.adj's byte order
            packed[:, row - 1] &= pad
            packed[:, row:] = 0
            deg = np.bitwise_count(hit).sum(axis=1)
            if not np.all(deg == g.degree):
                raise AssertionError(f"{p}: degrees {np.unique(deg)} != C(k,i)*C(v-k,k-i) = {g.degree}")
            g.adj[r0 : r0 + step] = packed[:, :row]
            del hit, packed, deg  # dead now: free them before the next step counts
    g.adj.flags.writeable = False
    return g


@functools.cache
def _physical_memory() -> int | float:
    """Bytes of physical memory, capped by a cgroup memory limit; unbounded
    where neither the OS nor a cgroup says.  Read once per process."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = INFINITE
    for path in _CGROUP_LIMITS:
        try:
            with open(path) as fh:
                limit = fh.read().strip()
        except OSError:
            continue
        if limit.isdigit():  # cgroup v2 reads "max" when there is no limit
            memory = min(memory, int(limit))
    return memory


def _unpacked(bits: np.ndarray, n: int) -> np.ndarray:
    """Vertex ranks whose bits are set, ascending."""
    return np.flatnonzero(np.unpackbits(bits, count=n).view(bool))


@dataclass(frozen=True)
class Search:
    """What one BFS from source measures."""

    source: int
    dist: np.ndarray       # int32, -1 for unreachable
    girth: int | None      # by the level-set rule; None when no cycle is reached
    odd_girth: int | None  # shortest odd closed walk through the source


def search(g: ExplicitGraph, source: int) -> Search:
    """BFS from a source rank that also finds the girth and odd girth through it.

    Level t's rows are OR-reduced in slabs of _SLAB bytes; what the union
    reaches unseen is level t+1.  Until the girth is known, each slab is
    tested for a row with two bits in level t-1 (a cycle of length 2t),
    and until the odd girth is known, the union for a bit inside level t
    (an edge there closes one of length 2t+1).  The first level with a
    candidate sets the girth, an even one winning.  An odd closed walk
    through the source uses an odd number of edges inside levels, so it
    is at least 2t+1 long; the tree paths to the first such edge give 2t+1.
    """
    adj, n = g.adj, g.n
    rank_index(g.params, source)
    dist = np.full(n, -1, dtype=np.int32)
    dist[source] = 0
    prev = np.zeros(adj.shape[1], dtype=np.uint8)  # packed level t-1
    cur = prev.copy()                               # packed level t
    cur[source >> 3] = 0x80 >> (source & 7)
    unseen = ~cur
    left = n - 1  # vertices not yet reached
    frontier = np.array([source])
    girth = odd_girth = None
    step = max(1, _SLAB // adj.shape[1])
    t = 0
    # Once every vertex is reached, a level is searched only for the tests.
    while frontier.size and (left or odd_girth is None):
        reach = np.zeros_like(cur)
        even = False
        for c0 in range(0, frontier.size, step):
            rows = adj[frontier[c0 : c0 + step]]
            reach |= np.bitwise_or.reduce(rows, axis=0)
            if girth is None and t > 1 and not even:
                # Each row has a bit in level t-1 (a level-1 row just one); it
                # has two when two of its bytes there are nonzero or one byte
                # holds two bits.
                back = rows & prev
                even = np.count_nonzero(back) > back.shape[0] or np.bitwise_count(back).max() > 1
        # Some row has a bit inside level t when their union does.
        odd = odd_girth is None and np.count_nonzero(reach & cur) > 0
        if girth is None and (even or odd):
            girth = 2 * t if even else 2 * t + 1
        if odd:
            odd_girth = 2 * t + 1
        t += 1
        reach &= unseen
        unseen ^= reach
        prev, cur = cur, reach
        frontier = _unpacked(reach, n)
        dist[frontier] = t
        left -= frontier.size
    return Search(source, dist, girth, odd_girth)


def bfs_distances(g: ExplicitGraph, source: int) -> np.ndarray:
    """Distances from source (int32, -1 for unreachable)."""
    return search(g, source).dist


def _sources(v: int, k: int, i: int, n: int, count: int) -> list[int]:
    """Canonical vertex 0 plus count-1 seeded-random distinct extras; a pure
    function, so a shorter request is a prefix of a longer one."""
    rng = np.random.default_rng([v, k, i, 1811])
    ranks = [0]
    while len(ranks) < min(count, n):
        r = int(rng.integers(n))
        if r not in ranks:
            ranks.append(r)
    return ranks[: min(count, n)]


def oracle_girth(g: ExplicitGraph) -> int | None:
    """Measured girth (None when acyclic), agreed by ``report_from_graph``."""
    return report_from_graph(g).girth


def oracle_odd_girth(g: ExplicitGraph) -> int | None:
    """Measured odd girth (None when bipartite), agreed the same way."""
    return report_from_graph(g).odd_girth


def oracle_diameter(g: ExplicitGraph) -> int | float:
    """Largest distance of the agreed profile; math.inf when disconnected."""
    return report_from_graph(g).diameter


def intersection_with(g: ExplicitGraph, source: int) -> np.ndarray:
    """|S_u ∩ S_source| for every vertex u, via mask popcounts; OutOfRange
    unless ``params.rank_index`` accepts source."""
    return np.bitwise_count(g.masks & g.masks[rank_index(g.params, source)]).astype(np.int32)


def distance_profile(g: ExplicitGraph, found: Search) -> dict[int, int | float]:
    """{x: BFS distance from the search's source to the vertices meeting it
    in x elements}, math.inf where unreachable; raises AssertionError
    unless every vertex with the same x is at the same distance, and
    ValueError for a search of a graph with another vertex count."""
    p, dist, source = g.params, found.dist, found.source
    if dist.shape != (g.n,):
        raise ValueError(f"{p} has {g.n} vertices; the search from {source} measured {dist.size}")
    overlap = intersection_with(g, source)
    at = np.empty(p.k + 1, dtype=dist.dtype)
    at[overlap] = dist  # some vertex's distance per x, which all must share
    bad = dist != at[overlap]
    if bad.any():
        x = int(overlap[bad.argmax()])
        ds = np.unique(dist[overlap == x]).tolist()
        raise AssertionError(f"{p}: distance from {source} not a function of x={x}: {ds}")
    return {x: INFINITE if at[x] < 0 else int(at[x]) for x in intersection_range(p)}


def oracle_distance(g: ExplicitGraph, x: int):
    """BFS distance between vertices meeting in x elements, read from the
    distance profile agreed by ``report_from_graph``.  Raises OutOfRange
    unless x passes ``params.intersection_size``."""
    return report_from_graph(g).distance_profile[intersection_size(g.params, x)]


@dataclass(frozen=True)
class OracleReport:
    """Measured counterparts of the closed-form invariants."""

    params: Parameters
    girth: int | None
    odd_girth: int | None
    diameter: int | float
    distance_profile: dict[int, int | float]
    connected: bool


def oracle_report(p: Parameters, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> OracleReport:
    """Build the graph and measure everything by search."""
    return report_from_graph(build_graph(p, vertex_budget))


def report_from_graph(g: ExplicitGraph, searches: Sequence[Search] | None = None) -> OracleReport:
    """Profile, girth and odd girth agreed between the given searches, one
    per source (by default the canonical vertex and _CROSS_CHECKS seeded
    extras), and the diameter read from that profile.  Vertex transitivity
    says they must agree: AssertionError names the first that does not.
    An empty list of searches raises ValueError."""
    p = g.params
    if searches is None:
        searches = [search(g, s) for s in _sources(p.v, p.k, p.i, g.n, 1 + _CROSS_CHECKS)]
    if not searches:
        raise ValueError(f"{p}: no searches to agree on")

    def agreed(what, values):
        if any(val != values[0] for val in values):
            raise AssertionError(f"{p}: per-source {what} disagrees: {values}")
        return values[0]

    profile = agreed("distance profile", [distance_profile(g, s) for s in searches])
    return OracleReport(
        params=p,
        girth=agreed("girth", [s.girth for s in searches]),
        odd_girth=agreed("odd girth", [s.odd_girth for s in searches]),
        diameter=max(profile.values()),
        distance_profile=profile,
        connected=INFINITE not in profile.values(),
    )
