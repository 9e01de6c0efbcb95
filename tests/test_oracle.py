import dataclasses
import math
import os
import re
import sys
import tracemalloc
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest

import gjg.oracle
from gjg.errors import BudgetExceeded, OutOfRange, Unsupported
from gjg.formulas import INFINITE
from gjg.graphio import rank, unrank
from gjg.oracle import (
    _SLAB,
    ExplicitGraph,
    _sources,
    _unpacked,
    bfs_distances,
    build_graph,
    distance_profile,
    intersection_with,
    oracle_diameter,
    oracle_distance,
    oracle_girth,
    oracle_odd_girth,
    oracle_report,
    report_from_graph,
    search,
    source_count,
)
from gjg.params import make_parameters

P = make_parameters


@pytest.fixture
def fresh_memory():
    """Forget the cached physical memory when the test ends, so a value read
    under patched limits reaches no later test."""
    yield
    gjg.oracle._physical_memory.cache_clear()


class TestBuildGraph:
    def test_petersen_shape(self):
        g = build_graph(P(5, 2, 0))
        assert g.n == 10
        assert g.degree == 3
        assert g.edge_count == 15

    def test_octahedron_shape(self):
        g = build_graph(P(4, 2, 1))
        assert g.n == 6
        assert g.degree == 4
        assert g.edge_count == 12

    def test_matching_shape(self):
        g = build_graph(P(6, 3, 0))
        assert g.n == 20
        assert g.degree == 1
        assert g.edge_count == 10

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            build_graph(P(16, 8, 4), vertex_budget=100)

    def test_ground_set_cap(self):
        with pytest.raises(Unsupported):
            build_graph(P(70, 1, 0))

    def test_adjacency_symmetric_and_loop_free(self):
        for t in [(5, 2, 0), (8, 4, 1), (7, 3, 1), (4, 2, 2)]:
            g = build_graph(P(*t))
            for u in range(g.n):
                nbrs = g.neighbors(u)
                assert u not in nbrs
                assert all(u in g.neighbors(int(w)) for w in nbrs)
                assert list(nbrs) == sorted(nbrs)

    def test_degree_formula_holds(self):
        for t in [(9, 4, 2), (10, 5, 3), (7, 3, 0)]:
            p = P(*t)
            g = build_graph(p)
            want = math.comb(p.k, p.i) * math.comb(p.v - p.k, p.k - p.i)
            degs = [g.neighbors(u).size for u in range(g.n)]
            assert degs == [want] * g.n

    def test_a_row_of_the_wrong_degree_raises(self, monkeypatch):
        # Every counted row's degree is checked as it is built.
        real = gjg.oracle._meeting

        def first_row_dropped(*args):
            hit = real(*args)
            hit[0] = 0
            return hit

        monkeypatch.setattr(gjg.oracle, "_meeting", first_row_dropped)
        with pytest.raises(AssertionError, match=re.escape("J(5,2,0): degrees [0 3] != C(k,i)*C(v-k,k-i) = 3")):
            build_graph(P(5, 2, 0))

    def test_rows_match_all_pairs_popcount(self):
        # Reference: the all-pairs mask popcount that the bit-sliced
        # counters replaced, a block of rows at a time.
        small = [(v, k, i) for v in range(11) for k in range(v + 1) for i in range(k + 1)]
        for t in small + [
            (14, 7, 2),  # several slabs of rows
            (14, 9, 6),  # counted over the complement, several slabs
            (15, 10, 7),
            (15, 10, 3),  # edgeless: i < 2k - v, no count is taken
            (13, 9, 2),
            (64, 1, 0),  # masks reach bit 63
            (64, 2, 1),
            (64, 63, 62),  # a one-element complement side
            (64, 63, 63),  # i = k: no row is counted
        ]:
            p = P(*t)
            g = build_graph(p)
            m = g.masks
            for u0 in range(0, g.n, 256):
                hit = np.bitwise_count(m[u0 : u0 + 256, None] & m) == p.i
                if p.i == p.k:
                    hit[np.arange(hit.shape[0]), np.arange(u0, u0 + hit.shape[0])] = False
                assert np.array_equal(g.adj[u0 : u0 + 256], np.packbits(hit, axis=1)), (t, u0)

    def test_rows_without_a_partner_are_not_counted(self, monkeypatch):
        # i = k (J(4,2,2), J(64,63,63)) and a target beyond the side's size
        # (J(15,10,3), and J(5,5,2), whose side is empty) leave zero rows
        # that are decided before counting; J(5,2,0) shows the count is seen.
        calls = Counter()

        def counted(lo, hi, split, s, t):
            calls[s, t] += 1  # (side size, target)
            return real(lo, hi, split, s, t)

        real = gjg.oracle._meeting
        monkeypatch.setattr(gjg.oracle, "_meeting", counted)
        for t in [(4, 2, 2), (64, 63, 63), (15, 10, 3), (5, 5, 2)]:
            g = build_graph(P(*t))
            assert not g.adj.any() and g.degree == 0, t
        assert calls == Counter()
        build_graph(P(5, 2, 0))
        assert calls == Counter({(2, 0): 1})

    def test_memory_is_a_small_multiple_of_the_graph(self):
        # J(15,8,4) counts over the 7 elements outside each vertex.
        for t in [(15, 7, 3), (15, 8, 4)]:
            build_graph(P(*t[:2], 0))  # the family is cached from here on
            tracemalloc.start()
            try:
                g = build_graph(P(*t))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * g.adj.nbytes, (t, peak, g.adj.nbytes)

    @pytest.mark.parametrize("t", [(13, 6, 3), (14, 7, 2), (15, 7, 3), (15, 8, 4), (16, 8, 4), (64, 2, 1),
                                   (4, 2, 1), (5, 2, 0), (6, 3, 1), (64, 1, 0), (64, 63, 62)], ids=str)
    def test_memory_estimate_bounds_a_cold_build(self, monkeypatch, fresh_memory, t):
        # A tiny graph's peak is mostly what no array holds, the first build's
        # read of the memory limits among it: every case is made that build.
        with monkeypatch.context() as m:
            m.setattr(gjg.oracle, "_physical_memory", lambda: 0)
            with pytest.raises(BudgetExceeded) as refused:
                build_graph(P(*t))
        need = int(re.search(r"needs about (\d+) bytes", str(refused.value))[1])
        gjg.oracle._FAMILY.clear()  # the family is derived inside the measured build
        gjg.oracle._physical_memory.cache_clear()  # and the memory limits read
        tracemalloc.start()
        try:
            build_graph(P(*t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need, (peak, need)

    def test_refuses_a_build_beyond_physical_memory(self, monkeypatch):
        # The estimate is checked before the family or adj is allocated.
        def no_family(v, k):
            raise AssertionError("allocated before the memory check")

        monkeypatch.setattr(gjg.oracle, "_family", no_family)
        monkeypatch.setattr(gjg.oracle, "_physical_memory", lambda: 16 << 30)
        with pytest.raises(BudgetExceeded, match=r"needs about \d+ bytes, physical memory 17179869184"):
            build_graph(P(22, 11, 5), vertex_budget=10**6)  # adj alone is about 62 GB
        monkeypatch.setattr(gjg.oracle, "_physical_memory", lambda: 10**6)
        with pytest.raises(BudgetExceeded, match="physical memory 1000000"):
            build_graph(P(14, 7, 3))  # adj is 1.47 MB

    @pytest.mark.parametrize("v2, v1, capped", [
        ("max\n", "9223372036854771712\n", False),  # no limit in either version
        (None, "9223372036854771712\n", False),
        ("1048576\n", None, True),
        (None, "1048576\n", True),
        ("max\n", "1048576\n", True),
        (None, None, False),
    ])
    def test_physical_memory_is_capped_by_the_cgroup_limit(self, monkeypatch, tmp_path, fresh_memory,
                                                          v2, v1, capped):
        paths = []
        for name, text in [("memory.max", v2), ("memory.limit_in_bytes", v1)]:
            paths.append(str(tmp_path / name))
            if text is not None:
                (tmp_path / name).write_text(text)
        monkeypatch.setattr(gjg.oracle, "_CGROUP_LIMITS", tuple(paths))
        gjg.oracle._physical_memory.cache_clear()  # read again under the patched paths
        sysconf = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert gjg.oracle._physical_memory() == (1048576 if capped else sysconf)
        if capped:
            with pytest.raises(BudgetExceeded, match="physical memory 1048576"):
                build_graph(P(14, 7, 3))  # adj is 1.47 MB

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_physical_memory_without_sysconf(self, monkeypatch, tmp_path, fresh_memory, error):
        # Where the OS cannot say, only a cgroup limit bounds the memory.
        def no_sysconf(name):
            raise error(name)

        monkeypatch.setattr(os, "sysconf", no_sysconf)
        limit = tmp_path / "memory.max"
        monkeypatch.setattr(gjg.oracle, "_CGROUP_LIMITS", (str(limit),))
        gjg.oracle._physical_memory.cache_clear()
        assert gjg.oracle._physical_memory() == INFINITE
        limit.write_text("1048576\n")
        gjg.oracle._physical_memory.cache_clear()
        assert gjg.oracle._physical_memory() == 1048576

    def test_physical_memory_is_read_once_per_process(self, monkeypatch, tmp_path, fresh_memory):
        paths = (str(tmp_path / "memory.max"), str(tmp_path / "memory.limit_in_bytes"))
        (tmp_path / "memory.max").write_text("max\n")
        monkeypatch.setattr(gjg.oracle, "_CGROUP_LIMITS", paths)
        gjg.oracle._physical_memory.cache_clear()
        opened = []

        def counted_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(gjg.oracle, "open", counted_open, raising=False)
        build_graph(P(5, 2, 0))
        assert opened == list(paths)
        build_graph(P(6, 3, 1))
        assert opened == list(paths)

    def test_builds_within_physical_memory(self, monkeypatch):
        monkeypatch.setattr(gjg.oracle, "_physical_memory", lambda: 4 << 20)
        assert build_graph(P(14, 7, 3)).n == 3432

    def test_graph_is_frozen_and_holds_no_cache(self):
        g = build_graph(P(5, 2, 0))
        for name, value in [("n", 11), ("adj", None), ("params", P(6, 2, 0))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, value)
        report_from_graph(g)
        assert vars(g).keys() == {"params", "n", "adj", "masks"}


class TestFamily:
    """``_family`` against the sorted-combinations generator it replaced, and
    its half tables against pure-Python intersection counts."""

    FAMILIES = [(v, k) for v in range(13) for k in range(v + 1)] + [(64, 1), (64, 2)]

    @staticmethod
    def _reference(elements, k):
        return sorted(combinations(elements, k), key=lambda t: t[::-1])

    @pytest.mark.parametrize("v, k", FAMILIES)
    def test_matches_the_sorted_combinations(self, v, k):
        subsets = self._reference(range(v), k)
        masks, lo, hi, split = record = gjg.oracle._family(v, k)
        assert masks.dtype == np.uint64
        assert masks.tolist() == [sum(1 << e for e in s) for s in subsets]
        for i in range(k + 1):
            g = build_graph(P(v, k, i))
            assert g.masks is record[0]
            assert gjg.oracle._family(v, k) is record
        assert gjg.oracle._FAMILY == {(v, k): record}

    @pytest.mark.parametrize("v, k", FAMILIES)
    def test_half_tables_hold_every_intersection_count(self, v, k):
        # Every T of at most s elements of a half, by size, then colex, has
        # |T| + 1 consecutive rows: row a is {w : |T ∩ S_w| = a}.  split
        # names where the rows of each vertex's side (S_u, or its
        # complement when k > v - k) start, below h and from h, and the
        # sizes of those two parts.
        n, s, h = math.comb(v, k), min(k, v - k), v // 2
        masks, lo, hi, split = gjg.oracle._family(v, k)
        vertices = [sum(1 << e for e in c) for c in self._reference(range(v), k)]
        sides = vertices if k <= v - k else [(1 << v) - 1 - m for m in vertices]
        for table, elements, at, size in [(lo, range(h), split[0], split[2]), (hi, range(h, v), split[1], split[3])]:
            assert table.dtype == np.uint64 and table.shape[1] == (n + 63) // 64
            bits = np.unpackbits(table.view(np.uint8), axis=1)
            assert not bits[:, n:].any()  # pad bits clear
            first, row = {}, 0
            for j in range(min(s, len(elements)) + 1):
                for c in self._reference(elements, j):
                    t = sum(1 << e for e in c)
                    first[t] = row
                    counts = np.array([(t & m).bit_count() for m in vertices])
                    want = counts == np.arange(j + 1)[:, None]
                    assert np.array_equal(bits[row : row + j + 1, :n], want), (v, k, c)
                    row += j + 1
            assert row == table.shape[0]
            half = sum(1 << e for e in elements)
            assert at.tolist() == [first[side & half] for side in sides]
            assert size.tolist() == [(side & half).bit_count() for side in sides]

    def test_graph_arrays_are_read_only(self):
        # Every graph of a (v, k) shares the cached family, so a caller's
        # write must fail rather than reach the next build.
        g = build_graph(P(5, 2, 0))
        record = gjg.oracle._family(5, 2)
        before = [table.copy() for table in record]
        for table in (g.adj, g.masks, *record):
            with pytest.raises(ValueError, match="read-only"):
                table[1] = table[0]
        h = build_graph(P(5, 2, 1))
        assert h.masks is g.masks and gjg.oracle._family(5, 2) is record
        assert all(np.array_equal(a, b) for a, b in zip(record, before))
        assert h.masks.tolist() == [3, 5, 6, 9, 10, 12, 17, 18, 20, 24]


def _upper_edges(g):
    """(u, w) with u < w from the unpacked adjacency matrix."""
    dense = np.unpackbits(g.adj, axis=1, count=g.n).astype(bool)
    us, ws = np.nonzero(np.triu(dense, 1))
    return us.tolist(), ws.tolist()


class TestEdgeBlocks:
    def _walk(self, g):
        blocks = list(g.edge_blocks())
        us = np.concatenate([b[0] for b in blocks]).tolist()
        ws = np.concatenate([b[1] for b in blocks]).tolist()
        return blocks, (us, ws)

    @pytest.mark.parametrize("slab", [_SLAB, 64, 16])
    def test_matches_unpacked_upper_triangle(self, monkeypatch, slab):
        # n = 126 and 35 are not multiples of 8; small slabs split the rows
        # at offsets that are not byte boundaries either.
        monkeypatch.setattr(gjg.oracle, "_SLAB", slab)
        for t in [(9, 4, 1), (7, 3, 1), (7, 3, 0)]:
            g = build_graph(P(*t))
            assert g.n % 8
            blocks, edges = self._walk(g)
            assert edges == _upper_edges(g), (t, slab)
            rows = max(1, slab // max(g.adj.shape[1], g.degree))
            assert len(blocks) == math.ceil(g.n / rows), (t, slab)

    # Slabs of 1, 7, 8 and 9 rows start at every offset from a byte
    # boundary; the graphs add n % 8 == 0, a matching, a complete graph and
    # an edgeless one to the cases above.
    @pytest.mark.parametrize("rows", [1, 7, 8, 9])
    @pytest.mark.parametrize("t", [(9, 4, 1), (7, 3, 1), (7, 3, 0), (8, 3, 1), (6, 3, 0),
                                   (6, 1, 0), (4, 2, 2)], ids=str)
    def test_every_diagonal_offset(self, monkeypatch, t, rows):
        g = build_graph(P(*t))
        slab = rows * max(g.adj.shape[1], g.degree)
        monkeypatch.setattr(gjg.oracle, "_SLAB", slab)
        blocks, edges = self._walk(g)
        assert edges == _upper_edges(g)
        assert len(blocks) == math.ceil(g.n / max(1, slab // max(g.adj.shape[1], g.degree)))

    def test_slabs_are_sized_in_bytes(self):
        g = build_graph(P(16, 8, 0))
        blocks, (us, ws) = self._walk(g)
        assert len(blocks) <= math.ceil(g.n / (_SLAB // math.ceil(g.n / 8)))  # 159, not 1287
        assert len(us) == g.edge_count and all(w == g.n - 1 - u for u, w in zip(us, ws))

    def test_slabs_hold_at_most_a_slab_of_edges(self):
        # J(14,4,1): 126 bytes and 480 edges per row, so 273 rows, not 1040.
        g = build_graph(P(14, 4, 1))
        blocks, _ = self._walk(g)
        assert max(us.size for us, _ in blocks) <= _SLAB
        assert len(blocks) == math.ceil(g.n / (_SLAB // g.degree))


def _reference_adjacency(p):
    """Adjacency lists of J(v,k,i) in pure Python, straight from the
    definition |A ∩ B| = i."""
    sets = [set(s) for s in sorted(combinations(range(p.v), p.k), key=lambda s: rank(p, s))]
    return [[w for w in range(len(sets)) if w != u and len(sets[u] & sets[w]) == p.i]
            for u in range(len(sets))]


def _bfs(start, step):
    """Distances and BFS-tree parents of the nodes reachable from start."""
    dist, parent = {start: 0}, {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in step(x):
            if y not in dist:
                dist[y], parent[y] = dist[x] + 1, x
                queue.append(y)
    return dist, parent


def _reference(p):
    """Adjacency lists, all-pairs BFS distances, girth and odd girth of
    J(v,k,i) in pure Python, straight from the definition |A ∩ B| = i."""
    adj = _reference_adjacency(p)
    n = len(adj)
    dists = []
    girth = odd_girth = None
    for s in range(n):
        d, parent = _bfs(s, lambda u: adj[u])
        dists.append([d.get(u, -1) for u in range(n)])
        # A non-tree edge closes a cycle of length at most d[u] + d[w] + 1,
        # with equality from a root on a shortest cycle.
        for u in d:
            for w in adj[u]:
                if parent[u] != w and parent[w] != u:
                    girth = min(girth or n + 1, d[u] + d[w] + 1)
        cover, _ = _bfs((s, 0), lambda node: [(w, 1 - node[1]) for w in adj[node[0]]])
        if (s, 1) in cover:
            odd_girth = min(odd_girth or n + 1, cover[(s, 1)])
    return adj, dists, girth, odd_girth


def _reference_search(adj, s):
    """Distances from s by BFS over adjacency lists, the girth by the
    level-set rule, and the odd girth by BFS on the bipartite double cover:
    the shortest walk from (s, even) to (s, odd)."""
    n = len(adj)
    dist = [-1] * n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)

    girth = None
    for t in range(1, max(dist) + 1):
        level = [u for u in range(n) if dist[u] == t]
        if any(sum(dist[w] == t - 1 for w in adj[u]) >= 2 for u in level):
            girth = 2 * t
        elif any(dist[w] == t for u in level for w in adj[u]):
            girth = 2 * t + 1
        if girth:
            break

    walk = {(s, 0): 0}
    queue = deque([(s, 0)])
    while queue and (s, 1) not in walk:
        u, parity = queue.popleft()
        for node in ((w, 1 - parity) for w in adj[u]):
            if node not in walk:
                walk[node] = walk[(u, parity)] + 1
                queue.append(node)
    return dist, girth, walk.get((s, 1))


def _assert_searches_match(g, adj, label):
    for s in range(g.n):
        dist, girth, odd_girth = _reference_search(adj, s)
        found = search(g, s)
        assert found.source == s, (label, s)
        assert found.dist.tolist() == dist, (label, s)
        assert (found.girth, found.odd_girth) == (girth, odd_girth), (label, s)


class TestUnpacked:
    # Rows carry every pad bit past n set, so only count=n keeps them out;
    # the bool view must give the same ranks as the bits read one by one.
    @pytest.mark.parametrize("n", range(1, 18))
    def test_matches_bit_reader_and_ignores_pad_bits(self, n):
        rng = np.random.default_rng(n)
        width = (n + 7) // 8
        pad = np.zeros(width, dtype=np.uint8)
        pad[-1] = 0xFF >> (n - 8 * (width - 1))
        rows = [np.zeros(width, dtype=np.uint8), np.full(width, 0xFF, dtype=np.uint8)]
        rows += [rng.integers(0, 256, width, dtype=np.uint8) for _ in range(20)]
        for row in rows:
            row = row | pad
            expected = [r for r in range(n) if row[r // 8] >> (7 - r % 8) & 1]
            got = _unpacked(row, n)
            assert got.tolist() == expected, (n, row)
            assert np.all(np.diff(got) > 0) and np.all(got < n), (n, row)


class TestMeasurements:
    def test_petersen(self):
        g = build_graph(P(5, 2, 0))
        assert oracle_girth(g) == 5
        assert oracle_odd_girth(g) == 5
        assert oracle_diameter(g) == 2
        assert oracle_distance(g, 1) == 2
        assert oracle_distance(g, 2) == 0

    def test_matching_disconnected(self):
        g = build_graph(P(6, 3, 0))
        assert oracle_girth(g) is None
        assert oracle_odd_girth(g) is None
        assert oracle_diameter(g) == INFINITE
        assert oracle_distance(g, 1) == INFINITE

    def test_odd_graph_seven(self):
        g = build_graph(P(7, 3, 0))
        assert oracle_girth(g) == 6
        assert oracle_odd_girth(g) == 7
        assert oracle_diameter(g) == 3

    def test_8_4_1(self):
        g = build_graph(P(8, 4, 1))
        assert oracle_girth(g) == 4
        assert oracle_odd_girth(g) == 5
        assert oracle_distance(g, 0) == 3

    def test_johnson_diameter(self):
        assert oracle_diameter(build_graph(P(8, 3, 2))) == 3

    def test_triangle_rich(self):
        g = build_graph(P(6, 2, 0))
        assert oracle_girth(g) == 3
        assert oracle_odd_girth(g) == 3

    def test_distance_out_of_range(self):
        g = build_graph(P(5, 2, 0))
        with pytest.raises(OutOfRange):
            oracle_distance(g, 3)

    @pytest.mark.parametrize("measure", ["oracle_distance", "report_from_graph"])
    @pytest.mark.parametrize("triple", [(7, 3, 1), (8, 4, 1)])
    def test_agreed_profile_catches_a_missing_edge(self, triple, measure):
        # With one edge at the canonical vertex cleared from both rows, that
        # neighbour is no longer at distance 1 while the other vertices
        # meeting it in i elements are: the profile is not a function of x.
        p = P(*triple)
        g = build_graph(p)
        g = dataclasses.replace(g, adj=g.adj.copy())
        w = int(g.neighbors(0)[0])
        g.adj[0, w >> 3] &= ~np.uint8(0x80 >> (w & 7))
        g.adj[w, 0] &= ~np.uint8(0x80)
        assert w not in g.neighbors(0) and 0 not in g.neighbors(w)
        with pytest.raises(AssertionError):
            if measure == "oracle_distance":
                oracle_distance(g, p.i)
            else:
                report_from_graph(g)

    def test_bit_rows_match_pure_python_reference(self):
        for t in [
            (8, 4, 2),  # dense
            (5, 2, 0),  # Kneser graph, n = 10 is not a multiple of 8
            (7, 3, 0),  # odd graph
            (6, 3, 0),  # matching
            (4, 2, 2),  # i = k: every self-intersection is excluded as a loop
        ]:
            p = P(*t)
            adj, dists, girth, odd_girth = _reference(p)
            g = build_graph(p)
            assert [g.neighbors(u).tolist() for u in range(g.n)] == adj, t
            assert [bfs_distances(g, s).tolist() for s in range(g.n)] == dists, t
            assert oracle_girth(g) == girth, t
            assert oracle_odd_girth(g) == odd_girth, t
            assert g.edge_count == sum(map(len, adj)) // 2, t

    # Every triple with v <= 9: matchings, odd graphs, v < 2k, and
    # disconnected and edgeless graphs among them.  Slabs of one to three
    # rows split every BFS level, and every build, across steps; graphs of
    # girth 4 to 6 with odd girth 5 to 9 carry a cycle test from step to
    # step, J(8,5,2) and J(7,4,1) counting over the complement.
    @pytest.mark.parametrize("rows", [None, 1, 2, 3])
    def test_search_matches_pure_python_references(self, monkeypatch, rows):
        triples = [(v, k, i) for v in range(10) for k in range(v + 1) for i in range(k + 1)]
        if rows:
            triples = [(8, 3, 0), (8, 5, 2), (5, 2, 0), (7, 3, 0), (7, 4, 1), (9, 4, 0), (7, 3, 1)]
        for t in triples:
            p = P(*t)
            if rows:
                monkeypatch.setattr(gjg.oracle, "_SLAB", rows * math.ceil(math.comb(*t[:2]) / 8))
            g = build_graph(p)
            # n <= C(9,4) = 126, so every source is searched.
            _assert_searches_match(g, [g.neighbors(u).tolist() for u in range(g.n)], t)

    def test_diameter_is_the_reference_eccentricity(self):
        # Every triple with v <= 9, n = 1, edgeless graphs and matchings
        # among them: the diameter read from the agreed profile is the
        # largest BFS distance of the pure-Python reference.
        for t in [(v, k, i) for v in range(10) for k in range(v + 1) for i in range(k + 1)]:
            p = P(*t)
            adj = _reference_adjacency(p)
            reached = [_bfs(s, adj.__getitem__)[0] for s in range(len(adj))]
            ecc = max(INFINITE if len(d) < len(adj) else max(d.values()) for d in reached)
            assert oracle_diameter(build_graph(p)) == ecc, t

    @pytest.mark.parametrize("measure", [search, bfs_distances])
    def test_search_rejects_a_source_outside_the_graph(self, measure):
        g = build_graph(P(5, 2, 0))
        for source in (-1, g.n):
            with pytest.raises(OutOfRange, match=rf"^rank {source} outside \[0, 10\)$"):
                measure(g, source)

    # A rank is what params.rank_index accepts: an int, not a bool or a
    # numpy integer, inside [0, n); -1 must not wrap around to the last
    # vertex.  Every entry point that takes one says the same.
    @pytest.mark.parametrize("bad", [-1, 10, True, 2.0, np.int64(3), None, "1"], ids=repr)
    @pytest.mark.parametrize("call", [search, bfs_distances, intersection_with,
                                      ExplicitGraph.neighbors, unrank],
                             ids=lambda f: f.__name__)
    def test_per_vertex_calls_take_only_a_rank(self, call, bad):
        g = build_graph(P(5, 2, 0))
        fault = (f"rank {bad} outside [0, 10)" if type(bad) is int
                 else f"rank must be an integer, got {bad!r}")
        with pytest.raises(OutOfRange, match=f"^{re.escape(fault)}$"):
            call(g.params if call is unrank else g, bad)

    def test_search_on_cycles_matches_references(self):
        # The two back-neighbours of a cycle's antipode share a byte of the
        # packed level for some sources and straddle two for others.
        for m in range(3, 21):
            adj = [[(u - 1) % m, (u + 1) % m] for u in range(m)]
            dense = np.zeros((m, m), dtype=bool)
            for u, ws in enumerate(adj):
                dense[u, ws] = True
            g = ExplicitGraph(P(m, 1, 0), m, np.packbits(dense, axis=1), np.zeros(m, np.uint64))
            assert _reference_search(adj, 0)[1:] == (m, m if m % 2 else None)
            _assert_searches_match(g, adj, m)

    # One source rule for every measurement: every vertex up to ten on a
    # graph of at most 600 (J(4,4,0) has one, J(9,4,1) 126) or with a thin
    # class (J(8,4,0) meets each vertex's complement alone at x = 0), else
    # four (J(12,5,2)'s thinnest class has 21 vertices, J(64,2,1)'s 124).
    @pytest.mark.parametrize("triple, count", [
        ((4, 4, 0), 1), ((8, 4, 0), 10), ((9, 4, 1), 10), ((12, 5, 2), 4), ((64, 2, 1), 4),
    ], ids=lambda t: ",".join(map(str, t)) if isinstance(t, tuple) else None)
    def test_one_source_rule(self, monkeypatch, triple, count):
        p = P(*triple)
        assert len(_sources(p)) == source_count(p) == count
        draws, searches = [], Counter()
        real_sources, real_search = gjg.oracle._sources, gjg.oracle.search

        def sources(q):
            draws.append(q)
            return real_sources(q)

        def counted(g, s):
            searches[s] += 1
            return real_search(g, s)

        monkeypatch.setattr(gjg.oracle, "_sources", sources)
        monkeypatch.setattr(gjg.oracle, "search", counted)
        # The report and oracle_report, which reads it, each draw the
        # sources once and search every one of them once.
        for measure in (lambda: report_from_graph(build_graph(p)), lambda: oracle_report(p)):
            draws.clear()
            searches.clear()
            measure()
            assert draws == [p] and searches == dict.fromkeys(real_sources(p), 1)

    def test_report_agrees_every_search_it_is_given(self, monkeypatch):
        # Each of _sources' ranks is searched and agreed: a girth skewed on
        # the last one alone is a disagreement.
        g = build_graph(P(9, 4, 1))
        last, real = _sources(g.params)[-1], gjg.oracle.search
        monkeypatch.setattr(gjg.oracle, "search", lambda g, s: dataclasses.replace(
            real(g, s), girth=99) if s == last else real(g, s))
        with pytest.raises(AssertionError, match=r"per-source girth disagrees: \[3, 3, 3, 3, 3, 3, 3, 3, 3, 99\]"):
            report_from_graph(g)

    def test_report_rejects_a_search_of_another_vertex_count(self):
        g, other = build_graph(P(9, 4, 1)), build_graph(P(8, 3, 1))
        with pytest.raises(ValueError, match=r"J\(9,4,1\) has 126 vertices; the search from 5 measured 56"):
            distance_profile(g, search(other, 5))


def test_sources_are_a_pure_function_of_the_triple():
    # Ranks drawn by the seeded generator, the same in every process.  The
    # sweep's tallies read only how many there are, oracle.source_count.
    ten = [0, 20, 16, 74, 43, 15, 121, 63, 98, 116]
    assert _sources(P(9, 4, 1)) == ten
    assert _sources(P(9, 4, 1)) == ten


def test_concurrent_builds_across_families():
    # Threads alternate between two (v,k) families, so each build evicts
    # the family another thread may be reading.
    triples = [(9, 4, 1), (10, 3, 1)]

    def measure(t):
        g = build_graph(P(*t))
        srcs = _sources(g.params)[:6]
        return srcs, [bfs_distances(g, s).tolist() for s in srcs], oracle_girth(g)

    want = {t: measure(t) for t in triples}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda j: (triples[j % 2], measure(triples[j % 2])),
                                range(24), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for t, result in got:
        assert result == want[t]


def test_threads_sharing_one_graph_agree_with_a_serial_run():
    g = build_graph(P(10, 4, 1))
    srcs = _sources(g.params)[:8]

    def measure(j):
        s = srcs[j % len(srcs)]
        return s, report_from_graph(g), bfs_distances(g, s).tolist(), oracle_girth(g)

    want = {j: measure(j) for j in range(len(srcs))}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(measure, range(24), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[j % len(srcs)] for j in range(24)]


class TestOracleReport:
    def test_petersen_bundle(self):
        r = oracle_report(P(5, 2, 0))
        assert (r.girth, r.odd_girth, r.diameter) == (5, 5, 2)
        assert r.distance_profile == {0: 1, 1: 2, 2: 0}
        assert r.connected

    def test_matching_bundle(self):
        r = oracle_report(P(6, 3, 0))
        assert r.girth is None and r.odd_girth is None
        assert r.diameter == INFINITE
        assert not r.connected
        assert r.distance_profile == {0: 1, 1: INFINITE, 2: INFINITE, 3: 0}

    def test_10_4_2_bundle(self):
        r = oracle_report(P(10, 4, 2))
        assert (r.girth, r.odd_girth, r.diameter) == (3, 3, 2)
        assert r.connected

    def test_complement_pair_is_isomorphic(self):
        low = oracle_report(P(9, 5, 2))
        high = oracle_report(P(9, 4, 1))
        assert (low.girth, low.odd_girth, low.diameter) == (
            high.girth,
            high.odd_girth,
            high.diameter,
        )
        assert low.distance_profile == {
            x + 1: d for x, d in high.distance_profile.items()
        }
