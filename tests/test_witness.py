import hashlib
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gjg.formulas
import gjg.witness
from gjg.errors import DegenerateClass, Disconnected, InvalidSet, NoCommonNeighbor, OutOfRange
from gjg.formulas import distance_by_intersection, girth, invariant_report, odd_girth
from gjg.graphio import rank
from gjg.oracle import bfs_distances, build_graph, oracle_girth, oracle_odd_girth
from gjg.params import GraphClass, intersection_range, make_parameters
from gjg.sweep import SweepConfig, sweep_triples
from gjg.witness import (
    Walk,
    WalkKind,
    canonical_pair,
    common_neighbor,
    complement_walk,
    geodesic,
    odd_closed_walk,
    shortest_cycle,
    verify_walk,
)

P = make_parameters

# Small normalized triples covering every class with edges and cycles.
CYCLIC_TRIPLES = [
    (5, 2, 0), (6, 2, 0), (7, 2, 0), (7, 3, 0), (9, 4, 0), (8, 4, 1),
    (10, 4, 2), (8, 3, 2), (4, 2, 1), (12, 5, 0), (12, 5, 1), (9, 4, 1),
    (10, 5, 2), (11, 5, 2), (13, 6, 2), (14, 6, 1),
]

# Every non-degenerate, non-matching triple with v <= 30, v < 2k included.
# The constructions read no closed form, so their lengths are checked
# against the closed forms here, each test within a time bound of its own.
CONNECTED_TRIPLES = [
    p for p in (P(v, k, i) for v in range(31) for k in range(v + 1) for i in range(k + 1))
    if not p.is_degenerate and p.graph_class is not GraphClass.MATCHING
]


class TestVerifyWalk:
    def test_single_vertex_path(self):
        p = P(5, 2, 0)
        assert verify_walk(p, Walk(((0, 1),), WalkKind.PATH, 0)) is True

    def test_adjacency_violation(self):
        p = P(5, 2, 0)
        assert verify_walk(p, Walk(((0, 1), (1, 2)), WalkKind.PATH, 1)) is False

    def test_wrong_claimed_length(self):
        p = P(5, 2, 0)
        assert verify_walk(p, Walk(((0, 1), (2, 3)), WalkKind.PATH, 2)) is False

    def test_cycle_needs_closure(self):
        p = P(6, 2, 0)
        open_cycle = Walk(((0, 1), (2, 3), (4, 5)), WalkKind.CYCLE, 2)
        assert verify_walk(p, open_cycle) is False

    def test_path_needs_distinct_vertices(self):
        p = P(6, 2, 0)
        w = Walk(((0, 1), (2, 3), (0, 1)), WalkKind.PATH, 2)
        assert verify_walk(p, w) is False
        assert verify_walk(p, Walk(w.vertices, WalkKind.CLOSED_WALK, 2)) is True

    def test_never_raises_on_odd_containers(self):
        # List vertices are read like tuples; vertices that are not a
        # sequence, or a w that is not a Walk, make an invalid walk, not
        # an error.
        p = P(5, 2, 0)
        assert verify_walk(p, Walk(([0, 1], [2, 3]), WalkKind.PATH, 1)) is True
        assert verify_walk(p, Walk(([0, 1], [2, 3], [0, 1]), WalkKind.PATH, 2)) is False
        assert verify_walk(p, Walk(None, WalkKind.PATH, 0)) is False
        assert verify_walk(p, Walk(5, WalkKind.PATH, 0)) is False
        assert verify_walk(p, None) is False
        assert verify_walk(p, ((0, 1), (2, 3))) is False

    @pytest.mark.parametrize("container, verifies", [
        (tuple, True), (list, True), (set, False), (frozenset, False),
        (dict.fromkeys, False), (iter, False), (lambda vs: (s for s in vs), False),
    ], ids=["tuple", "list", "set", "frozenset", "dict", "iterator", "generator"])
    def test_vertices_must_be_a_sequence(self, container, verifies):
        # The rule params.vertex applies to a vertex's elements: a set or
        # dict has no order, and an iterator would be used up by the check.
        p = P(5, 2, 0)
        vs = container([(0, 1), (2, 3)])
        assert verify_walk(p, Walk(vs, WalkKind.PATH, 1)) is verifies

    @pytest.mark.parametrize("bad", [True, 201])
    def test_one_bad_element_deep_in_a_long_walk(self, bad):
        # Element 99 of vertex 57 of a length-100 geodesic in J(201,100,0):
        # every element of every vertex is checked.
        p = P(201, 100, 0)
        a, b = canonical_pair(p, 50)
        w = geodesic(p, a, b)
        assert w.claimed_length == 100 and verify_walk(p, w) is True
        vs = list(w.vertices)
        vs[57] = (*vs[57][:99], bad)
        assert verify_walk(p, Walk(tuple(vs), WalkKind.PATH, 100)) is False

    @pytest.mark.parametrize("vertex", [(0, 1.5), (-1, 1), (1, 5), (0.5, 2), ("0", "1")])
    def test_vertex_outside_the_ground_set(self, vertex):
        # An element that is not one of 0..v-1 makes a walk invalid, even
        # when the intersection sizes along it would pass.
        p = P(5, 2, 0)
        for w in [Walk((vertex, (2, 3)), WalkKind.PATH, 1), Walk(((2, 3), vertex), WalkKind.PATH, 1)]:
            assert verify_walk(p, w) is False

    @pytest.mark.parametrize("kind", ["cycle", "closed_walk", None, 2])
    def test_kind_must_be_a_walk_kind(self, kind):
        # A closed walk that passes as WalkKind.CLOSED_WALK fails under any
        # other spelling of its kind.
        p = P(5, 2, 0)
        w = Walk(((0, 1), (2, 3), (0, 1)), WalkKind.CLOSED_WALK, 2)
        assert verify_walk(p, w) is True
        assert verify_walk(p, Walk(w.vertices, kind, 2)) is False

    @pytest.mark.parametrize("length", [1.0, True, "1", None])
    def test_claimed_length_must_be_an_int(self, length):
        p = P(5, 2, 0)
        assert verify_walk(p, Walk(((0, 1), (2, 3)), WalkKind.PATH, 1)) is True
        assert verify_walk(p, Walk(((0, 1), (2, 3)), WalkKind.PATH, length)) is False


class TestCommonNeighbor:
    def test_disjoint_sets_large_ground(self):
        c = common_neighbor(P(10, 4, 2), (0, 1, 2, 3), (4, 5, 6, 7))
        assert c == (0, 1, 4, 5)
        assert len(set(c) & {0, 1, 2, 3}) == 2
        assert len(set(c) & {4, 5, 6, 7}) == 2

    def test_self_pair_gives_any_neighbor(self):
        p = P(8, 4, 1)
        c = common_neighbor(p, (0, 1, 2, 3), (0, 1, 2, 3))
        assert len(set(c) & {0, 1, 2, 3}) == 1

    @pytest.mark.parametrize("triple", [(5, 2, 0), (7, 4, 2)])  # (7,4,2) lifts
    @pytest.mark.parametrize("build", [common_neighbor, geodesic])
    def test_rejects_non_integer_elements(self, build, triple):
        p = P(*triple)
        a = tuple(range(p.k))
        b = tuple(range(p.v - p.k, p.v))
        for bad in [(*a[:-1], a[-1] + 0.5), (*a[:-1], float(a[-1])), (True, *a[1:])]:
            for args in [(bad, b), (b, bad)]:
                with pytest.raises(InvalidSet, match="elements must be integers"):
                    build(p, *args)

    def test_petersen_disjoint_fails(self):
        with pytest.raises(NoCommonNeighbor):
            common_neighbor(P(5, 2, 0), (0, 1), (2, 3))

    def test_postcondition_everywhere(self):
        for t in CYCLIC_TRIPLES:
            p = P(*t)
            for x in intersection_range(p):
                a, b = canonical_pair(p, x)
                try:
                    c = common_neighbor(p, a, b)
                except NoCommonNeighbor:
                    continue
                assert len(set(c) & set(a)) == p.i, (t, x)
                assert len(set(c) & set(b)) == p.i, (t, x)


class TestGeodesic:
    def test_identical_vertices(self):
        w = geodesic(P(8, 4, 1), (0, 1, 2, 3), (0, 1, 2, 3))
        assert w.claimed_length == 0 and w.kind is WalkKind.PATH

    def test_adjacent_vertices(self):
        w = geodesic(P(8, 4, 1), (0, 1, 2, 3), (3, 4, 5, 6))
        assert w.claimed_length == 1

    def test_disjoint_in_8_4_1(self):
        p = P(8, 4, 1)
        w = geodesic(p, (0, 1, 2, 3), (4, 5, 6, 7))
        assert w.claimed_length == 3
        assert verify_walk(p, w)

    def test_length_matches_formula_everywhere(self):
        # 2345 triples, 20,265 geodesics: measured at 0.7-1.1 s on a 2-vCPU VM.
        start = time.perf_counter()
        walks = 0
        for p in CONNECTED_TRIPLES:
            for x in intersection_range(p):
                a, b = canonical_pair(p, x)
                w = geodesic(p, a, b)
                walks += 1
                assert verify_walk(p, w), (p, x)
                assert w.claimed_length == distance_by_intersection(p, x), (p, x)
                assert w.vertices[0] == a and w.vertices[-1] == b
        elapsed = time.perf_counter() - start
        assert (len(CONNECTED_TRIPLES), walks) == (2345, 20265)
        assert elapsed < 8, f"{elapsed:.2f} s"

    def test_deterministic(self):
        p = P(13, 6, 2)
        a, b = canonical_pair(p, 4)
        assert geodesic(p, a, b) == geodesic(p, a, b)

    @pytest.mark.parametrize("triple, x, message", [
        ((10, 4, 2), 9, "intersection size 9 outside [0, 4]"),
        ((10, 4, 2), -1, "intersection size -1 outside [0, 4]"),
        ((7, 4, 2), 0, "intersection size 0 outside [1, 4]"),  # v < 2k: |A ∩ B| >= 1
    ])
    def test_canonical_pair_rejects_impossible_sizes(self, triple, x, message):
        with pytest.raises(OutOfRange, match=re.escape(message)):
            canonical_pair(P(*triple), x)

    def test_matching_routes(self):
        p = P(6, 3, 0)
        assert geodesic(p, (0, 1, 2), (3, 4, 5)).claimed_length == 1
        assert geodesic(p, (0, 1, 2), (0, 1, 2)).claimed_length == 0
        with pytest.raises(Disconnected):
            geodesic(p, (0, 1, 2), (0, 1, 3))


class TestShortestCycle:
    def test_triangle_in_6_2_0(self):
        p = P(6, 2, 0)
        w = shortest_cycle(p)
        assert w.claimed_length == 3 and verify_walk(p, w)

    def test_four_cycle_in_8_4_1(self):
        p = P(8, 4, 1)
        w = shortest_cycle(p)
        assert w.claimed_length == 4 and verify_walk(p, w)

    def test_petersen_five_cycle(self):
        p = P(5, 2, 0)
        w = shortest_cycle(p)
        assert w.claimed_length == 5 and verify_walk(p, w)

    def test_odd_graph_six_cycles(self):
        for t in [(7, 3, 0), (9, 4, 0), (11, 5, 0), (13, 6, 0)]:
            p = P(*t)
            w = shortest_cycle(p)
            assert w.claimed_length == 6 and verify_walk(p, w), t

    def test_length_equals_girth_everywhere(self):
        # Measured at 0.10-0.13 s on a 2-vCPU VM.
        start = time.perf_counter()
        for p in CONNECTED_TRIPLES:
            w = shortest_cycle(p)
            assert verify_walk(p, w), p
            assert w.claimed_length == girth(p), p
        elapsed = time.perf_counter() - start
        assert elapsed < 2, f"{elapsed:.2f} s"

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateClass):
            shortest_cycle(P(6, 3, 0))


class TestOddClosedWalk:
    def test_odd_graph_walk(self):
        p = P(7, 3, 0)
        w = odd_closed_walk(p)
        assert w.claimed_length == 7 and verify_walk(p, w)

    def test_triangle_case(self):
        p = P(6, 2, 0)
        assert odd_closed_walk(p).claimed_length == 3

    def test_girth_four_case(self):
        p = P(8, 4, 1)
        w = odd_closed_walk(p)
        assert w.claimed_length == 5 and verify_walk(p, w)

    def test_odd_parity_r_case(self):
        # r = ceil((k-i)/delta) = 3 here, exercising the odd-r construction
        p = P(12, 5, 0)
        w = odd_closed_walk(p)
        assert w.claimed_length == odd_girth(p) == 7 and verify_walk(p, w)

    def test_length_equals_odd_girth_everywhere(self):
        # Measured at 0.11-0.17 s on a 2-vCPU VM.
        start = time.perf_counter()
        for p in CONNECTED_TRIPLES:
            w = odd_closed_walk(p)
            assert verify_walk(p, w), p
            assert w.claimed_length == odd_girth(p), p
        elapsed = time.perf_counter() - start
        assert elapsed < 2, f"{elapsed:.2f} s"

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateClass):
            odd_closed_walk(P(8, 4, 0))


@pytest.mark.parametrize("triple", [(9, 4, 1), (5, 2, 0), (7, 4, 2), (7, 3, 0)])
@pytest.mark.parametrize("construct", [shortest_cycle, odd_closed_walk])
def test_each_construction_verifies_its_walk_once(monkeypatch, construct, triple):
    # Girth 3 builds its odd walk from the triangle, (5,2,0) its 5-cycle from
    # the odd walk, and (7,4,2) lifts its normal form's walk: the one built
    # inside the other is not verified again, and a lifted walk is verified
    # in J(v,k,i) itself.
    calls = []
    real = gjg.witness.verify_walk

    def counted(p, w):
        calls.append(p)
        return real(p, w)

    monkeypatch.setattr(gjg.witness, "verify_walk", counted)
    construct(P(*triple))
    assert calls == [P(*triple)]


# Every non-degenerate triple of the desk sweep with v < 2k.
LIFTED_TRIPLES = [
    t for t in sweep_triples(SweepConfig())
    if not P(*t).is_normalized and not P(*t).is_degenerate
]


def test_desk_sweep_lifts_168_triples():
    assert len(LIFTED_TRIPLES) == 168


@pytest.mark.parametrize("triple", LIFTED_TRIPLES, ids=lambda t: "J(%d,%d,%d)" % t)
def test_lifted_witnesses_match_the_oracle(triple):
    # Constructions on v < 2k go through the complement of the normal form;
    # each one is checked on the explicit graph of the triple itself.
    p = P(*triple)
    g = build_graph(p)
    rep = invariant_report(p)
    for x in intersection_range(p):
        a, b = canonical_pair(p, x)
        ra, rb = rank(p, a), rank(p, b)
        w = geodesic(p, a, b)
        assert verify_walk(p, w), x
        assert (w.vertices[0], w.vertices[-1]) == (a, b), x
        assert w.claimed_length == rep.distance_profile[x] == bfs_distances(g, ra)[rb], x
        if (g.adj[ra] & g.adj[rb]).any():
            rc = rank(p, common_neighbor(p, a, b))
            assert rc in g.neighbors(ra) and rc in g.neighbors(rb), x
        else:
            with pytest.raises(NoCommonNeighbor):
                common_neighbor(p, a, b)
    cyc = shortest_cycle(p)
    assert verify_walk(p, cyc) and cyc.claimed_length == oracle_girth(g)
    ow = odd_closed_walk(p)
    assert verify_walk(p, ow) and ow.claimed_length == oracle_odd_girth(g)


@pytest.mark.parametrize("triple", [(6, 4, 1), (5, 5, 2), (4, 2, 2)])
def test_degenerate_triples_have_no_witnesses(triple):
    p = P(*triple)
    a = b = tuple(range(p.k))
    for build in (shortest_cycle, odd_closed_walk,
                  lambda p: geodesic(p, a, b), lambda p: common_neighbor(p, a, b)):
        with pytest.raises(DegenerateClass, match="has no normal form"):
            build(p)


def test_complement_walk_maps_between_isomorphic_graphs():
    low = P(7, 4, 2)
    high = P(7, 3, 1)
    w = geodesic(high, (0, 1, 2), (3, 4, 5))
    lifted = complement_walk(low, w)
    assert verify_walk(low, lifted)
    assert lifted.claimed_length == w.claimed_length


class TestLargeTriples:
    """Parameter ranges past the brute-force budget: constructions are
    checked against the closed forms only, reaching route shapes (three or
    more alternating rounds, long exchange chains) that small graphs
    cannot produce."""

    TRIPLES = [
        (19, 9, 0),   # even routes up to 4 rounds
        (20, 9, 1),
        (22, 10, 8),  # exchange chains of 5 hops below the adjacency overlap
        (24, 10, 3),
        (21, 10, 4),
        (26, 12, 1),
        (23, 11, 9),
        (40, 17, 6),
    ]

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_geodesics_all_intersections(self, triple):
        p = P(*triple)
        for x in intersection_range(p):
            a, b = canonical_pair(p, x)
            w = geodesic(p, a, b)
            assert verify_walk(p, w), x
            assert w.claimed_length == distance_by_intersection(p, x), x

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_cycles_and_odd_walks(self, triple):
        p = P(*triple)
        cyc = shortest_cycle(p)
        assert verify_walk(p, cyc) and cyc.claimed_length == girth(p)
        ow = odd_closed_walk(p)
        assert verify_walk(p, ow) and ow.claimed_length == odd_girth(p)

    def test_every_construction_at_v_2_200(self):
        # A construction takes at most k elements from outside a pair, so
        # its cost does not grow with v.  Every J(2^200, k, i), k <= 8:
        # 240 geodesics, 36 cycles and 36 odd walks, measured at
        # 14-20 ms in all on a 2-vCPU VM.
        start = time.perf_counter()
        for k in range(1, 9):
            for i in range(k):
                p = P(2**200, k, i)
                for x in intersection_range(p):
                    w = geodesic(p, *canonical_pair(p, x))
                    assert verify_walk(p, w) and w.claimed_length == distance_by_intersection(p, x), (k, i, x)
                cyc, ow = shortest_cycle(p), odd_closed_walk(p)
                assert verify_walk(p, cyc) and cyc.claimed_length == girth(p), (k, i)
                assert verify_walk(p, ow) and ow.claimed_length == odd_girth(p), (k, i)
        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"{elapsed:.2f} s"

    def test_deep_even_route_taken(self):
        # At x = 5 the even route needs 4 round trips while the odd one
        # would need 11 edges, so the 8-edge construction must win.
        p = P(19, 9, 0)
        a, b = canonical_pair(p, 5)
        assert geodesic(p, a, b).claimed_length == 8


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(5, 2, 0), (8, 4, 1), (10, 4, 2), (9, 4, 1), (7, 3, 0), (8, 3, 2)]),
    st.randoms(use_true_random=False),
)
def test_geodesic_on_arbitrary_pairs(triple, rnd):
    # Random (not canonical) endpoint pairs: element interleavings must not
    # affect validity or length.
    p = P(*triple)
    elems = list(range(p.v))
    a = tuple(sorted(rnd.sample(elems, p.k)))
    b = tuple(sorted(rnd.sample(elems, p.k)))
    w = geodesic(p, a, b)
    assert verify_walk(p, w)
    assert w.claimed_length == distance_by_intersection(p, len(set(a) & set(b)))
    assert w.vertices[0] == a and w.vertices[-1] == b


def test_library_has_no_bare_asserts():
    # Invariant checks in library code must survive python -O, so they
    # raise explicitly instead of using assert statements.
    import ast
    import pathlib

    import gjg

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(gjg.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _longer(real):
    def longer(p, a, b):
        w = real(p, a, b)
        return w._replace(claimed_length=w.claimed_length + 1)
    return longer


class TestSelfChecks:
    # Each construction checks its result and raises AssertionError when the
    # check fails; patching the name a check reads reaches each raise.
    @pytest.mark.parametrize("name, skew, construct, message", [
        ("verify_walk", lambda real: lambda p, w: False,
         lambda: shortest_cycle(P(9, 4, 1)), "shortest_cycle built an invalid cycle for J(9,4,1)"),
        ("verify_walk", lambda real: lambda p, w: False,
         lambda: odd_closed_walk(P(9, 4, 1)), "odd_closed_walk built an invalid walk for J(9,4,1)"),
        ("_geodesic", _longer, lambda: odd_closed_walk(P(8, 4, 1)), "legs of length 3 and 3, expected 2"),
    ], ids=["shortest_cycle", "odd_closed_walk", "odd_walk_legs"])
    def test_failed_check_raises(self, monkeypatch, name, skew, construct, message):
        monkeypatch.setattr(gjg.witness, name, skew(getattr(gjg.witness, name)))
        with pytest.raises(AssertionError, match=re.escape(message)):
            construct()

    def test_constructions_read_no_closed_form(self, monkeypatch):
        # Every closed form a construction could consult is skewed, in
        # gjg.formulas and, where a construction would read a bound name, in
        # gjg.witness: each walk and neighbour stays what it was.
        def built():
            out = []
            for t in [(8, 4, 1), (9, 4, 1), (5, 2, 0), (7, 4, 2)]:
                p = P(*t)
                out += [shortest_cycle(p), odd_closed_walk(p)]
                for x in intersection_range(p):
                    a, b = canonical_pair(p, x)
                    out.append(geodesic(p, a, b))
                    try:
                        out.append(common_neighbor(p, a, b))
                    except NoCommonNeighbor as exc:
                        out.append(f"NoCommonNeighbor: {exc}")
            return out

        want = built()
        for name, skew in [("girth", lambda real: lambda p: real(p) + 1),
                           ("odd_girth", lambda real: lambda p: real(p) + 2),
                           ("distance_by_intersection", lambda real: lambda p, x: real(p, x) + 1),
                           ("has_common_neighbor", lambda real: lambda p, x: not real(p, x))]:
            skewed = skew(getattr(gjg.formulas, name))
            monkeypatch.setattr(gjg.formulas, name, skewed)
            monkeypatch.setattr(gjg.witness, name, skewed, raising=False)
        assert built() == want

    def test_failed_check_raises_under_python_o(self, src_env):
        code = ("import sys, gjg.witness as w\n"
                "from gjg.params import make_parameters\n"
                "w.verify_walk = lambda p, walk: False\n"
                "try:\n"
                "    w.shortest_cycle(make_parameters(9, 4, 1))\n"
                "except AssertionError as exc:\n"
                "    print(sys.flags.optimize, exc)\n")
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                              env=src_env, check=True, timeout=60)
        assert done.stdout == "1 shortest_cycle built an invalid cycle for J(9,4,1)\n"


# Every triple with v <= 12 (degenerate and lifted ones included) and four
# larger ones, reaching every branch of every construction.
DIGEST_TRIPLES = [
    (v, k, i) for v in range(2, 13) for k in range(v + 1) for i in range(k + 1)
] + [(201, 100, 0), (64, 20, 5), (40, 13, 0), (33, 20, 9)]


def test_constructions_are_pinned_by_a_digest():
    # Hashes every construction's result on each triple's canonical pairs
    # and 3 seeded random pairs: the walk's kind, length and vertices, the
    # common neighbor, or the exception type and message.  A refactor of
    # the constructions must leave every walk, and so this digest, as is.
    rng = random.Random(10)
    digest = hashlib.sha256()
    calls = 0

    def record(build, *args):
        nonlocal calls
        calls += 1
        try:
            r = build(*args)
        except Exception as e:  # an error is part of the result
            line = f"{type(e).__name__}: {e}"
        else:
            line = f"{r.kind.value} {r.claimed_length} {r.vertices}" if isinstance(r, Walk) else repr(r)
        digest.update(line.encode() + b"\n")

    for t in DIGEST_TRIPLES:
        p = P(*t)
        record(shortest_cycle, p)
        record(odd_closed_walk, p)
        pairs = [canonical_pair(p, x) for x in intersection_range(p)]
        pairs += [
            tuple(tuple(sorted(rng.sample(range(p.v), p.k))) for _ in "ab") for _ in range(3)
        ]
        for a, b in pairs:
            record(geodesic, p, a, b)
            record(common_neighbor, p, a, b)
    assert calls == 6676
    assert digest.hexdigest() == "c85abe79e0178c142f747de4b7e8a6ee3b8612e43cce8055a8b52b93d4616aef"
