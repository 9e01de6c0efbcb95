import math
import random
import time
import timeit
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gjg.graphio
import gjg.oracle
from gjg.errors import InvalidSet, OutOfRange
from gjg.formulas import report_for
from gjg.graphio import export_graph, export_report, rank, unrank
from gjg.oracle import build_graph, oracle_report
from gjg.params import make_parameters

P = make_parameters


class TestRankUnrank:
    def test_first_and_last(self):
        p = P(7, 3, 0)
        assert rank(p, (0, 1, 2)) == 0
        assert rank(p, (4, 5, 6)) == math.comb(7, 3) - 1
        assert unrank(p, 0) == (0, 1, 2)
        assert unrank(p, math.comb(7, 3) - 1) == (4, 5, 6)

    def test_worked_example(self):
        # Enumerating 2-subsets of a 5-set in colex order puts {1,3} fifth.
        p = P(5, 2, 0)
        assert rank(p, (1, 3)) == 4
        assert unrank(p, 4) == (1, 3)

    def test_exhaustive_bijection_small(self):
        for v, k in [(5, 2), (6, 3), (7, 3), (8, 4), (6, 1), (5, 5)]:
            p = P(v, k, 0 if k > 0 else 0)
            seen = set()
            for r in range(math.comb(v, k)):
                s = unrank(p, r)
                assert rank(p, s) == r
                seen.add(s)
            assert seen == set(combinations(range(v), k))

    def test_colex_order_is_reversed_tuple_order(self):
        p = P(6, 3, 0)
        subs = [unrank(p, r) for r in range(math.comb(6, 3))]
        assert subs == sorted(subs, key=lambda t: t[::-1])

    def test_invalid_sets(self):
        p = P(6, 3, 0)
        for bad in [(0, 1), (0, 1, 1), (1, 0, 2), (0, 1, 6), (-1, 0, 1),
                    (0, 1, 2.5), (0, 1.0, 2), (False, 1, 3), (0, 1, True), ("0", "1", "2")]:
            with pytest.raises(InvalidSet):
                rank(p, bad)

    def test_rank_out_of_range(self):
        p = P(6, 3, 0)
        with pytest.raises(OutOfRange):
            unrank(p, -1)
        with pytest.raises(OutOfRange):
            unrank(p, math.comb(6, 3))
        for bad in [1.5, 1.0, True, False, "1", None]:
            with pytest.raises(OutOfRange):
                unrank(p, bad)

    @given(st.integers(1, 16).flatmap(
        lambda v: st.tuples(st.just(v), st.integers(0, v))
    ), st.randoms())
    def test_round_trip_random(self, vk, rnd):
        v, k = vk
        p = P(v, k, max(0, k - 1))
        r = rnd.randrange(math.comb(v, k))
        assert rank(p, unrank(p, r)) == r


def _reference_rank(s):
    """The textbook colex rank, one comb per element."""
    return sum(math.comb(e, j + 1) for j, e in enumerate(s))


def _reference_unrank(v, k, r):
    """The textbook colex unrank, recomputing C(e, j) at every step."""
    out = [0] * k
    e = v - 1
    for j in range(k, 0, -1):
        while math.comb(e, j) > r:
            e -= 1
        out[j - 1] = e
        r -= math.comb(e, j)
        e -= 1
    return tuple(out)


class TestRankAgainstReference:
    def test_every_rank_small(self):
        for v in range(1, 13):
            for k in range(v + 1):
                p = P(v, k, 0)
                for r in range(math.comb(v, k)):
                    s = unrank(p, r)
                    assert s == _reference_unrank(v, k, r)
                    assert rank(p, s) == _reference_rank(s) == r

    def test_seeded_ranks_large(self):
        rnd = random.Random(20231)
        triples = [(256, 128, 0), (256, 256, 0), (256, 1, 0), (256, 255, 0),
                   (256, 128, 128), (200, 200, 200), (97, 1, 1), (97, 96, 96)]
        for _ in range(60):
            v = rnd.randint(13, 256)
            k = rnd.randint(0, v)
            triples.append((v, k, rnd.randint(0, k)))
        triples += [(10**4, 1, 0), (10**4, 3, 0)]  # levels whose walk would run thousands of steps
        for v, k, i in triples:
            p = P(v, k, i)
            n = math.comb(v, k)
            for r in {0, n - 1, *(rnd.randrange(n) for _ in range(20))}:
                s = unrank(p, r)
                assert s == _reference_unrank(v, k, r)
                assert rank(p, s) == _reference_rank(s) == r


class TestUnrankAtAnyV:
    # A colex rank below C(w, k) names the same subset at every v >= w, so
    # the reference answers a small rank on a small ground set.  Each case
    # has its own time bound: a walk of one e at a time took 1.1 s at
    # v = 10^7 and never returns at v = 2^200.

    def test_small_rank_at_ten_million(self):
        p = P(10**7, 3, 0)
        assert unrank(p, 5) == _reference_unrank(6, 3, 5) == (0, 2, 4)
        best = min(timeit.repeat(lambda: unrank(p, 5), number=1, repeat=5))
        assert best < 0.01, f"{best * 1e3:.2f} ms"

    def test_rank_of_the_last_top_element_at_ten_million(self):
        p = P(10**7, 3, 0)
        r = math.comb(10**7 - 1, 3)
        start = time.perf_counter()
        s = unrank(p, r)
        elapsed = time.perf_counter() - start
        assert s == (0, 1, 10**7 - 1)
        assert rank(p, s) == _reference_rank(s) == r
        assert elapsed < 0.05, f"{elapsed:.3f} s"

    def test_round_trip_at_two_to_the_200(self):
        rnd = random.Random(200)
        v = 2**200
        start = time.perf_counter()
        for k in range(9):
            p = P(v, k, 0)
            n = math.comb(v, k)
            for r in {0, n - 1, math.comb(v // 2, k) % n, *(rnd.randrange(n) for _ in range(5))}:
                s = unrank(p, r)  # rank checks that s is a vertex of p
                assert rank(p, s) == _reference_rank(s) == r
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"{elapsed:.1f} s"


# Labels cross a decimal width in 0-based or in 1-based form: n = 10
# (9 -> 10 only 1-based), 120 and 792 (99 -> 100 both ways), plus a graph
# without edges.
_REFERENCE_TRIPLES = [(5, 2, 0), (10, 3, 1), (12, 5, 2), (4, 2, 2)]


class TestExportGraph:
    def test_matching_edgelist_golden(self):
        g = build_graph(P(6, 3, 0))
        lines = export_graph(g, "edgelist").decode().splitlines()
        assert len(lines) == 10
        assert lines[0] == "0 19"
        # colex complement pairing: rank r is matched with 19 - r
        assert lines == [f"{r} {19 - r}" for r in range(10)]

    def test_petersen_dimacs_golden(self):
        g = build_graph(P(5, 2, 0))
        payload = export_graph(g, "dimacs").decode()
        lines = payload.splitlines()
        assert lines[0] == "p edge 10 15"
        assert len(lines) == 16
        assert all(line.startswith("e ") for line in lines[1:])
        assert payload.endswith("\n")

    def test_octahedron_edge_count(self):
        g = build_graph(P(4, 2, 1))
        lines = export_graph(g, "edgelist").decode().splitlines()
        assert len(lines) == 12

    def test_empty_graph(self):
        g = build_graph(P(4, 2, 2))
        assert export_graph(g, "edgelist") == b""
        assert export_graph(g, "dimacs") == b"p edge 6 0\n"

    def test_byte_identical(self):
        g = build_graph(P(5, 2, 0))
        assert export_graph(g, "edgelist") == export_graph(g, "edgelist")

    def test_edge_count_matches_regularity(self):
        for t in [(5, 2, 0), (8, 4, 1), (7, 3, 1)]:
            g = build_graph(P(*t))
            lines = export_graph(g, "edgelist").decode().splitlines()
            assert len(lines) == g.n * g.degree // 2

    @pytest.mark.parametrize("triple", _REFERENCE_TRIPLES)
    def test_matches_pure_python_reference(self, triple):
        v, k, i = triple
        subsets = sorted(combinations(range(v), k), key=lambda t: t[::-1])
        pairs = [(u, w) for u, w in combinations(range(len(subsets)), 2)
                 if len(set(subsets[u]) & set(subsets[w])) == i]
        g = build_graph(P(*triple))
        assert export_graph(g, "edgelist") == "".join(
            f"{u} {w}\n" for u, w in pairs).encode()
        assert export_graph(g, "dimacs") == (f"p edge {len(subsets)} {len(pairs)}\n" + "".join(
            f"e {u + 1} {w + 1}\n" for u, w in pairs)).encode()

    def test_labels_cross_999_to_1000(self):
        # n = 1001: the last 0-based label is 1000, the last 1-based 1001.
        g = build_graph(P(14, 4, 1))
        dense = np.unpackbits(g.adj, axis=1, count=g.n).astype(bool)
        pairs = np.transpose(np.nonzero(np.triu(dense, 1))).tolist()
        assert (g.n, len(pairs)) == (1001, 240240)
        assert export_graph(g, "edgelist") == "".join(f"{u} {w}\n" for u, w in pairs).encode()
        assert export_graph(g, "dimacs") == ("p edge 1001 240240\n" + "".join(
            f"e {u + 1} {w + 1}\n" for u, w in pairs)).encode()

    def test_dropped_edge_drops_exactly_the_last_line(self, monkeypatch):
        # perfbench's correctness gate sabotages export through this seam
        # (its _dropped_edge, which drops the last slab): every payload of
        # its smoke graphs, one slab each, must then differ from the
        # recorded one.
        fmts = ("edgelist", "dimacs")
        graphs = [build_graph(P(*t)) for t in [(7, 3, 0), (7, 4, 1), (8, 3, 1), (8, 5, 3)]]
        full = [[export_graph(g, fmt) for fmt in fmts] for g in graphs]
        real = gjg.graphio._undirected_edges
        monkeypatch.setattr(gjg.graphio, "_undirected_edges", lambda g: list(real(g))[:-1])
        for g, payloads in zip(graphs, full):
            assert all(export_graph(g, fmt) != b for fmt, b in zip(fmts, payloads)), g.params
        # At 4 rows per slab J(7,3,0) has several, the last ones empty:
        # each payload loses exactly the lines of the last slab with any.
        g = graphs[0]
        monkeypatch.setattr(gjg.oracle, "_SLAB", 4 * g.adj.shape[1])
        sizes = [us.size for us, _ in g.edge_blocks()]
        assert len(sizes) > 1 and sizes[-1] == 0
        last = [size for size in sizes if size][-1]
        for fmt, payload in zip(fmts, full[0]):
            lines = payload.splitlines(keepends=True)
            assert export_graph(g, fmt) == b"".join(lines[:-last]), fmt

    # translate drops pads chunk by chunk, so a seam bug would show only
    # where one slab of edges ends and the next begins.  The graphs are
    # built first: _SLAB also sizes the build's steps.
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_block_seams_change_no_byte(self, monkeypatch, rows):
        graphs = [build_graph(P(*t)) for t in [*_REFERENCE_TRIPLES, (14, 4, 1)]]
        whole = [export_graph(g, fmt) for g in graphs for fmt in ("edgelist", "dimacs")]
        seamed = []
        for g in graphs:
            monkeypatch.setattr(gjg.oracle, "_SLAB", rows * max(g.adj.shape[1], g.degree))
            assert max(us.size for us, _ in g.edge_blocks()) <= rows * g.degree
            seamed += [export_graph(g, fmt) for fmt in ("edgelist", "dimacs")]
        assert seamed == whole

    def test_pad_is_never_a_payload_byte(self):
        # Every occurrence of the pad is deleted, so a printable pad would
        # silently eat real characters.
        pad = bytes([gjg.graphio._PAD])
        assert pad not in b"0123456789 \nep"
        for t in [*_REFERENCE_TRIPLES, (14, 4, 1)]:
            g = build_graph(P(*t))
            for fmt in ("edgelist", "dimacs"):
                assert pad not in export_graph(g, fmt), (t, fmt)

    # J(13,6,3) is the largest payload (600600 edges, a 5.2 MB edgelist);
    # J(14,4,1) has the largest slab for its payload.
    @pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
    def test_memory_is_a_small_multiple_of_the_payload(self, fmt):
        for t, bound in [((13, 6, 3), 2.2), ((14, 4, 1), 6)]:
            g = build_graph(P(*t))
            tracemalloc.start()
            try:
                payload = export_graph(g, fmt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * len(payload), (t, peak, len(payload))

    def test_unknown_format(self):
        g = build_graph(P(5, 2, 0))
        with pytest.raises(ValueError):
            export_graph(g, "graphml")

    @pytest.mark.parametrize("fmt", [None, 3])
    def test_format_that_is_not_a_string(self, fmt):
        g = build_graph(P(5, 2, 0))
        with pytest.raises(ValueError, match=f"^unknown format {fmt!r}; "):
            export_graph(g, fmt)

    # A format is one of two exact names; no case folding or trimming.
    @pytest.mark.parametrize("fmt", ["DIMACS", "Edgelist", "dimacs "])
    def test_format_names_are_exact(self, fmt):
        g = build_graph(P(5, 2, 0))
        with pytest.raises(ValueError, match=f"^unknown format {fmt!r}; "):
            export_graph(g, fmt)

    @pytest.mark.parametrize("prefix", [b"", b"e "])
    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("n", [9, 10, 11, 100, 1001])
    def test_label_table_is_padded_labels(self, n, offset, prefix):
        # Half 0 of row r is the first half of a line, half 1 the second,
        # each padded in front to the width of the largest label.
        fill = f"{chr(gjg.graphio._PAD)}>{len(str(n - 1 + offset))}"
        halves = [[prefix + format(r + offset, fill).encode() + b" " for r in range(n)],
                  [bytes(len(prefix) * [gjg.graphio._PAD]) + format(r + offset, fill).encode()
                   + b"\n" for r in range(n)]]
        table = gjg.graphio._label_table(n, offset, prefix)
        assert table.dtype == np.uint8
        assert [[row.tobytes() for row in half] for half in table] == halves

    # Blocks of 2 end on (0, 9), of 3 on (8, 9): the largest label closes
    # a chunk.  n = 10 widens only the 1-based labels.
    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.int32, np.intp])
    def test_encode_edges_matches_python(self, dtype, block):
        n, pairs = 10, [(0, 1), (0, 9), (8, 9)]
        edges = np.array(pairs, dtype=dtype)
        blocks = [(edges[b0 : b0 + block, 0], edges[b0 : b0 + block, 1])
                  for b0 in range(0, len(pairs), block)]
        for offset, prefix in [(0, b""), (1, b"e ")]:
            chunks = gjg.graphio._encode_edges(blocks, n, offset, prefix)
            assert len(chunks) == len(blocks) == -(-len(pairs) // block)
            assert b"".join(chunks) == b"".join(
                b"%s%d %d\n" % (prefix, u + offset, w + offset) for u, w in pairs)
        assert edges.tolist() == [list(e) for e in pairs]  # the index is a copy


class TestExportReport:
    def test_formula_report_golden(self):
        got = export_report(report_for(5, 2, 0)).decode()
        assert got == (
            "schema: gjg.report/1\n"
            "v: 5\nk: 2\ni: 0\ndelta: 1\nclass: odd_graph\n"
            "girth: 5\nodd_girth: 5\ndiameter: 2\n"
            "distance_profile:\n  0: 1\n  1: 2\n  2: 0\n"
        )

    def test_matching_report_spells_literals(self):
        got = export_report(report_for(6, 3, 0)).decode()
        assert "girth: undefined" in got
        assert "odd_girth: undefined" in got
        assert "diameter: infinite" in got
        assert "  1: infinite" in got

    def test_oracle_report_has_connected(self):
        got = export_report(oracle_report(P(5, 2, 0))).decode()
        assert got.endswith("connected: true\n")
        got = export_report(oracle_report(P(6, 3, 0))).decode()
        assert got.endswith("connected: false\n")

    def test_profile_snapshot(self):
        got = export_report(report_for(8, 4, 1)).decode()
        assert "distance_profile:\n  0: 3\n  1: 1\n  2: 2\n  3: 2\n  4: 0\n" in got

    def test_key_order(self):
        keys = [
            line.split(":")[0]
            for line in export_report(oracle_report(P(5, 2, 0))).decode().splitlines()
            if line and not line.startswith(" ")
        ]
        assert keys == [
            "schema", "v", "k", "i", "delta", "class",
            "girth", "odd_girth", "diameter", "distance_profile", "connected",
        ]
