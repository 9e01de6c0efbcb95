"""Brute-force ground truth: explicit J(v,k,i) graphs measured by search.

Nothing here consults the closed-form module; girth, odd girth, diameter,
and distances come from BFS on an explicitly materialized graph.  Vertices
are bitmasks over ground sets of at most 64 elements, in colex rank order
by the colex recurrence.  The family is derived once per (v, k) and shared
by every i: the masks, and two half tables, one per half of the ground
set, holding for each small subset T of that half and each a the packed
set {w : |T ∩ S_w| = a}.  Adjacency is one packed bit matrix: row u has
bit w set when |S_u ∩ S_w| equals i.  Row u counts, for every w at once,
how many elements of S_u or of range(v) ∖ S_u, whichever is smaller, lie
in S_w, by joining the two halves' tables; no formula is consulted.
Counting over S_u keeps count i; counting over its complement keeps
count k - i, because |S_w ∖ S_u| = k - |S_u ∩ S_w|.  Rows with no
possible partner (i = k, or a target beyond v - k: the edgeless triples
i < 2k - v) are zero and not counted at all.  Every search works on the
rows directly, a BFS level being the OR of the frontier's rows.

Single-source shortcuts (one BFS for distances, girth, odd girth) are
mathematically justified because the symmetric group on the ground set
acts transitively on vertices; since the point of this module is
independence, every such value is still cross-checked from seeded random
extra sources, as many as ``source_count`` decides, the one rule.
``report_from_graph`` runs one BFS (``search``) per source and agrees
what they measure; every ``oracle_*`` query reads that report.
Distances come from one measurement, the profile: BFS from a source to
every vertex, a function of the size of their intersection, keyed by
the sizes that some vertex has, read from the graph and not from
``params``.  The diameter is the profile's largest distance, so it
covers the class of every vertex.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded, Unsupported
from .params import INFINITE, InvariantReport, Parameters, class_size, intersection_size, rank_index

DEFAULT_VERTEX_BUDGET = 20_000
MAX_GROUND_SET = 64

# Memory limit files of cgroup v2, then v1 (which reads a huge number when unlimited).
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")
# Elements per vectorized step: bits or bytes of packed rows.  A step pays a
# few dozen numpy calls, so larger is faster until its live arrays outgrow
# a core's L2 cache or lift a build's peak above 1.25 x its adjacency rows.
_SLAB = 1 << 17
MIN_PAIR_SAMPLES = 10  # source_count's target of (source, vertex) pairs per class
_SMALL_GRAPH = 600  # source_count searches up to MIN_PAIR_SAMPLES sources on graphs this small
# Bytes outside array data (headers, Python objects, the first build's read of
# the memory limits): traced cold builds of tiny graphs need up to 13.5 KB.
_OVERHEAD = 16 << 10


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
        # The vertices meeting u in i elements; at i = k the only one is u
        # itself, excluded as a loop.
        p = self.params
        return 0 if p.i == p.k else class_size(p, p.i)

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


# One cached family per (v, k), shared by every i: (masks, lo, hi, split).
_FAMILY: dict = {}


def _half(member: np.ndarray, everyone: np.ndarray, elements: range, s: int,
          parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half table over one block of elements, and where each part starts.
    For every subset T of the block with at most s elements, ordered by
    size, then colex, the table holds |T| + 1 consecutive rows: row a of
    them is the packed set {w : |T ∩ S_w| = a} as uint64 words.  ``parts``
    are such subsets as masks shifted to the block's start; the index of
    each one's first row is returned.

    Filled level by level: T ∪ {e} meets S_w in a elements when T meets
    it in a and e ∉ S_w, or in a - 1 and e ∈ S_w.  By the colex
    recurrence the (j+1)-subsets whose largest element is the block's
    m-th are the first C(m, j) j-subsets with that element added.  A
    subset's key, |T| << 32 | T, is ascending in this order, so a part is
    a binary search away."""
    counts = [math.comb(len(elements), j) for j in range(min(s, len(elements)) + 1)]
    table = np.zeros((sum((j + 1) * c for j, c in enumerate(counts)), everyone.size), dtype=np.uint64)
    levels, starts, at = [], [], 0
    for j, count in enumerate(counts):  # level j: the j-subsets, j + 1 rows each
        levels.append(table[at : at + (j + 1) * count].reshape(count, j + 1, -1))
        starts.append(np.arange(at, at + (j + 1) * count, j + 1))
        at += (j + 1) * count
    levels[0][0, 0] = everyone  # the empty set meets every S_w in 0 elements
    keys = [np.zeros(1, dtype=np.uint64)]  # per level, ascending
    for j, below in enumerate(levels[:-1]):
        at, level = 0, []
        for m, e in enumerate(elements[j:], j):
            part, bit = below[: math.comb(m, j)], member[e]
            added = levels[j + 1][at : at + part.shape[0]]
            np.bitwise_and(part, ~bit, out=added[:, :-1])
            added[:, 1:] |= part & bit
            level.append(keys[j][: part.shape[0]] + np.uint64((1 << 32) + (1 << m)))
            at += part.shape[0]
        keys.append(np.concatenate(level))
    size = np.bitwise_count(parts).astype(np.uint64)
    return table, np.concatenate(starts)[np.searchsorted(np.concatenate(keys), size << np.uint64(32) | parts)]


def _family(v: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The k-subsets of range(v) in colex order and their half tables,
    derived once per (v, k).  ``masks[u]`` is S_u as a uint64 bitmask.
    Colex recurrence: the j-subsets of range(m+1) are those of range(m),
    then the (j-1)-subsets of range(m), a prefix of the size before, with
    bit m set.

    A vertex's side is S_u when k <= v - k and range(v) ∖ S_u otherwise,
    s = min(k, v - k) elements either way.  With h = v // 2, ``lo`` and
    ``hi`` are the ``_half`` tables of range(h) and range(h, v) over every
    w, pad bits clear.  Column u of ``split`` holds the first ``lo`` row
    of L_u, u's side below h, the first ``hi`` row of H_u, the rest of
    it, then |L_u| and |H_u|."""
    if (record := _FAMILY.get((v, k))) is not None:
        return record
    _FAMILY.clear()  # keep at most one family resident, and free it before deriving the next
    masks = np.zeros(1, dtype=np.uint64)  # the one 0-subset
    for j in range(1, k + 1):  # a k-subset's j smallest elements lie in range(v-k+j)
        masks = np.concatenate([masks[: math.comb(m, j - 1)] | np.uint64(1 << m)
                                for m in range(j - 1, v - k + j)])
    n = masks.size
    # C(v,k) distinct k-subsets of range(v), ascending as integers, are all
    # of them in colex order: row u is the vertex of graphio's rank u.
    if not (n == math.comb(v, k) and np.all(masks[:-1] < masks[1:])
            and np.all(np.bitwise_count(masks) == k) and int(masks[-1]) < 1 << v):
        raise AssertionError(f"colex enumeration out of rank order for (v={v}, k={k})")
    packed = np.zeros((v + 1, (n + 63) // 64 * 8), dtype=np.uint8)  # {w : e ∈ S_w} per e, then every w
    for e in range(v):
        packed[e, : (n + 7) // 8] = np.packbits(masks >> np.uint64(e) & np.uint64(1) != 0)
    packed[v, : (n + 7) // 8] = np.packbits(np.ones(n, dtype=bool))
    member, everyone = packed.view(np.uint64)[:v], packed.view(np.uint64)[v]
    h, s = v // 2, min(k, v - k)
    side = masks if k <= v - k else masks ^ np.uint64((1 << v) - 1)
    low = side & np.uint64((1 << h) - 1)
    lo, lrow = _half(member, everyone, range(h), s, low)
    hi, hrow = _half(member, everyone, range(h, v), s, side >> np.uint64(h))
    lsize = np.bitwise_count(low).astype(np.intp)
    record = masks, lo, hi, np.stack([lrow, hrow, lsize, s - lsize])
    for table in record:  # shared by every graph of the family
        table.flags.writeable = False
    _FAMILY[(v, k)] = record
    return record


def _meeting(lo: np.ndarray, hi: np.ndarray, split: np.ndarray, s: int, t: int) -> np.ndarray:
    """Packed rows as uint64 words, one per column of split: bit w is set
    when exactly t elements of u's side lie in S_w.  Precondition:
    0 <= t <= s, the side's size; ``build_graph`` leaves every other row
    zero without calling here.

    The side meets S_w in t elements exactly when, for one a, L_u meets it
    in a and H_u in t - a, so the row is the OR over a of the half tables'
    rows lo[L_u][a] & hi[H_u][t - a].  Only a from max(0, t - |H_u|) to
    min(t, |L_u|) can hold a bit, at most min(t, s - t) + 1 values; a row
    with fewer repeats its last.
    """
    lrow, hrow, lsize, hsize = split
    first, last = np.maximum(t - hsize, 0), np.minimum(lsize, t)
    hrow = hrow + t
    hit = None
    for j in range(min(t, s - t) + 1):
        a = np.minimum(first + j, last)
        term = lo.take(lrow + a, axis=0)
        term &= hi.take(hrow - a, axis=0)
        if hit is None:
            hit = term
        else:
            hit |= term
        del term  # spent: free it before the next term is gathered
    return hit


def build_graph(p: Parameters, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> ExplicitGraph:
    """Materialize J(v,k,i): all C(v,k) vertices plus packed adjacency rows.

    Row u comes from counting, for every vertex w at once, how many
    elements of u's side, S_u or range(v) ∖ S_u, whichever is smaller,
    lie in S_w: set membership alone, read from the family's half tables
    (``_meeting``), with no formula consulted.  When k <= v - k the side
    is S_u and the row keeps the columns whose count is i.  Otherwise the
    side is the complement, and since |S_w ∖ S_u| = k - |S_u ∩ S_w|, the
    row keeps count k - i.  Rows with no possible partner stay zero and
    are never counted: at i = k only S_u meets S_u in k elements, and the
    edgeless triples' target k - i exceeds the side's v - k.  Every
    counted row's degree is checked against C(k,i)*C(v-k,k-i) as it is
    built.

    Raises BudgetExceeded when C(v,k) > vertex_budget or the estimated
    bytes of the build exceed physical memory, and Unsupported for ground
    sets beyond 64 elements (vertices are 64-bit masks).
    """
    if p.v > MAX_GROUND_SET:
        raise Unsupported(f"ground set of {p.v} > {MAX_GROUND_SET} elements")
    n = math.comb(p.v, p.k)
    if n > vertex_budget:
        raise BudgetExceeded(f"{p} has {n} vertices, budget {vertex_budget}")
    # Refuse before allocating.  Counted, in bytes: _OVERHEAD; adj; eight
    # words per vertex (masks, split's four rows, and the scratch of deriving
    # them); the member rows the tables are filled from; the two half tables,
    # plus one of their largest levels as fill scratch; and the arrays live
    # in one step: _meeting's result, its term and the gathered hi rows (each
    # uint64 words), the degree count's bytes and eight per-row indices.
    # The previous step's arrays are freed before the next step's are
    # allocated.
    row, words = (n + 7) // 8, (n + 63) // 64
    step = min(n, max(1, _SLAB // row))
    s = min(p.k, p.v - p.k)
    levels = [(j + 1) * math.comb(m, j) for m in (p.v // 2, p.v - p.v // 2) for j in range(min(s, m) + 1)]
    need = (_OVERHEAD + n * row + n * 8 * 8 + (p.v + 1 + sum(levels) + max(levels)) * words * 8
            + step * (words * (3 * 8 + 1) + 8 * 8))
    if need > (memory := _physical_memory()):
        raise BudgetExceeded(f"{p} needs about {need} bytes, physical memory {memory}")
    masks, lo, hi, split = _family(p.v, p.k)
    target = p.i if p.k <= p.v - p.k else p.k - p.i
    g = ExplicitGraph(p, n, np.zeros((n, row), dtype=np.uint8), masks)
    if p.i < p.k and target <= s:
        for r0 in range(0, n, step):
            hit = _meeting(lo, hi, split[:, r0 : r0 + step], s, target)
            packed = hit.view(np.uint8)  # the same bits, in g.adj's byte order, pads clear as in lo and hi
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


def source_count(p: Parameters) -> int:
    """How many BFS sources every measurement of p agrees over: up to
    MIN_PAIR_SAMPLES vertices when there are at most _SMALL_GRAPH, or when
    some class other than x = k (the source itself) that has a vertex gives
    three sources fewer than MIN_PAIR_SAMPLES (source, vertex) pairs;
    otherwise four."""
    n = math.comb(p.v, p.k)
    if n <= _SMALL_GRAPH or min(c for x in range(p.k) if (c := class_size(p, x))) * 3 < MIN_PAIR_SAMPLES:
        return min(n, MIN_PAIR_SAMPLES)
    return 4


def _sources(p: Parameters) -> list[int]:
    """The source_count(p) ranks that measure p: vertex 0, then distinct
    extras from a generator seeded with the triple, a pure function of it."""
    n, count = math.comb(p.v, p.k), source_count(p)
    rng = np.random.default_rng([p.v, p.k, p.i, 1811])
    ranks = [0]
    while len(ranks) < count:
        r = int(rng.integers(n))
        if r not in ranks:
            ranks.append(r)
    return ranks


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
    in x elements}, math.inf where unreachable, keyed by the classes the
    graph has: every x that some vertex meets the source in, and no
    other.  Raises AssertionError unless every vertex with the same x is
    at the same distance, and ValueError for a search of a graph with
    another vertex count."""
    p, dist, source = g.params, found.dist, found.source
    if dist.shape != (g.n,):
        raise ValueError(f"{p} has {g.n} vertices; the search from {source} measured {dist.size}")
    overlap = intersection_with(g, source)
    at = np.full(p.k + 1, -2, dtype=dist.dtype)  # -2: no vertex meets the source in x
    at[overlap] = dist  # some vertex's distance per x, which all must share
    bad = dist != at[overlap]
    if bad.any():
        x = int(overlap[bad.argmax()])
        ds = np.unique(dist[overlap == x]).tolist()
        raise AssertionError(f"{p}: distance from {source} not a function of x={x}: {ds}")
    return {x: INFINITE if d < 0 else d for x, d in enumerate(at.tolist()) if d != -2}


def oracle_distance(g: ExplicitGraph, x: int):
    """BFS distance between vertices meeting in x elements, read from the
    distance profile agreed by ``report_from_graph``.  Raises OutOfRange
    unless x passes ``params.intersection_size``."""
    return report_from_graph(g).distance_profile[intersection_size(g.params, x)]


OracleReport = InvariantReport  # a measured report; connected is never None


def oracle_report(p: Parameters, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> InvariantReport:
    """Build the graph and measure everything by search."""
    return report_from_graph(build_graph(p, vertex_budget))


def report_from_graph(g: ExplicitGraph) -> InvariantReport:
    """Profile, girth and odd girth agreed between one search from each
    rank of ``_sources``, and the diameter read from that profile.  Vertex
    transitivity says they must agree: AssertionError names the first
    that does not."""
    p = g.params
    searches = [search(g, s) for s in _sources(p)]

    def agreed(what, values):
        if any(val != values[0] for val in values):
            raise AssertionError(f"{p}: per-source {what} disagrees: {values}")
        return values[0]

    profile = agreed("distance profile", [distance_profile(g, s) for s in searches])
    return InvariantReport(
        params=p,
        girth=agreed("girth", [s.girth for s in searches]),
        odd_girth=agreed("odd girth", [s.odd_girth for s in searches]),
        diameter=max(profile.values()),
        distance_profile=profile,
        connected=INFINITE not in profile.values(),
    )
