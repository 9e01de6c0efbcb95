import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gjg.errors import DegenerateClass, OutOfRange, Unsupported
from gjg.formulas import (
    INFINITE,
    ceil_div,
    diameter,
    distance_by_intersection,
    girth,
    has_common_neighbor,
    invariant_report,
    max_route_distance,
    odd_girth,
    report_for,
)
from gjg.params import delta, intersection_range, make_parameters, normalize
from gjg.witness import canonical_pair

P = make_parameters


def test_ceil_div():
    assert ceil_div(0, 3) == 0
    assert ceil_div(7, 3) == 3
    assert ceil_div(6, 3) == 2
    with pytest.raises(ValueError):
        ceil_div(-1, 3)
    with pytest.raises(ValueError):
        ceil_div(1, 0)


class TestCommonNeighbor:
    def test_petersen_disjoint_pairs_share_nothing(self):
        # Oracle BFS confirms no two disjoint 2-sets of a 5-set share a neighbor.
        assert has_common_neighbor(P(5, 2, 0), 0) is False

    def test_self_always_has_neighbors(self):
        for t in [(5, 2, 0), (10, 4, 2), (8, 4, 1), (6, 3, 0)]:
            p = P(*t)
            assert has_common_neighbor(p, p.k) is True

    def test_disjoint_4_sets_in_large_ground_set(self):
        assert has_common_neighbor(P(10, 4, 2), 0) is True

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            has_common_neighbor(P(5, 2, 0), 3)


class TestGirth:
    # Frozen from the closed form and confirmed by the oracle sweep.
    @pytest.mark.parametrize(
        "triple, expected",
        [
            ((5, 2, 0), 5),
            ((7, 3, 0), 6),
            ((9, 4, 0), 6),
            ((8, 4, 1), 4),
            ((6, 2, 0), 3),
            ((3, 1, 0), 3),   # complete graph on 3 vertices
            ((12, 5, 0), 4),
            ((10, 4, 2), 3),
        ],
    )
    def test_values(self, triple, expected):
        assert girth(P(*triple)) == expected

    def test_degenerate_undefined(self):
        assert girth(P(6, 3, 0)) is None
        assert girth(P(4, 3, 0)) is None
        assert girth(P(4, 2, 2)) is None


class TestOddGirth:
    @pytest.mark.parametrize(
        "triple, expected",
        [((7, 3, 0), 7), ((9, 4, 0), 9), ((8, 4, 1), 5), ((6, 2, 0), 3), ((5, 2, 0), 5)],
    )
    def test_values(self, triple, expected):
        assert odd_girth(P(*triple)) == expected

    def test_matching_undefined(self):
        assert odd_girth(P(6, 3, 0)) is None

    def test_never_below_girth(self):
        for v in range(2, 12):
            for k in range(1, v // 2 + 1):
                for i in range(k):
                    p = P(v, k, i)
                    g, og = girth(p), odd_girth(p)
                    if g is None or og is None:
                        continue
                    assert og >= g
                    if g % 2 == 1:
                        assert og == g


class TestDistance:
    @pytest.mark.parametrize(
        "triple, x, expected",
        [
            ((10, 4, 2), 1, 2),
            ((8, 4, 1), 0, 3),
            ((8, 4, 1), 2, 2),
            ((5, 2, 0), 1, 2),
            ((10, 4, 2), 2, 1),   # x = i is one hop
            ((10, 4, 2), 4, 0),   # x = k is the same vertex
        ],
    )
    def test_values(self, triple, x, expected):
        assert distance_by_intersection(P(*triple), x) == expected

    def test_matching_cases(self):
        p = P(6, 3, 0)
        assert distance_by_intersection(p, 3) == 0
        assert distance_by_intersection(p, 0) == 1
        assert distance_by_intersection(p, 1) == INFINITE

    def test_case_totality(self):
        # Exactly one of the three formula cases applies for every valid x.
        for v in range(4, 14):
            for k in range(1, v // 2 + 1):
                for i in range(k):
                    p = P(v, k, i)
                    if p.graph_class.value in ("matching", "edgeless", "empty_vertex_set"):
                        continue
                    d = delta(p)
                    for x in intersection_range(p):
                        cases = [x < min(i, k - d), k - d <= x < i, x >= i]
                        assert sum(cases) == 1, (v, k, i, x)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            distance_by_intersection(P(10, 4, 2), 5)
        with pytest.raises(OutOfRange):
            distance_by_intersection(P(4, 2, 1), -1)

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateClass):
            distance_by_intersection(P(4, 3, 0), 3)


class TestDiameter:
    @pytest.mark.parametrize(
        "triple, expected",
        [
            ((8, 3, 2), 3),    # Johnson: diameter k
            ((7, 3, 0), 3),    # Kneser: ceil((k-1)/(v-2k)) + 1
            ((8, 4, 1), 3),
            ((10, 4, 2), 2),
            ((5, 2, 0), 2),
            ((4, 2, 1), 2),
            ((9, 4, 0), 4),
        ],
    )
    def test_values(self, triple, expected):
        assert diameter(P(*triple)) == expected

    def test_matching(self):
        assert diameter(P(6, 3, 0)) == INFINITE
        assert diameter(P(2, 1, 0)) == 1  # a single edge is connected

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateClass):
            diameter(P(4, 3, 0))
        with pytest.raises(DegenerateClass):
            diameter(P(3, 3, 0))

    def test_equals_profile_maximum(self):
        for v in range(4, 14):
            for k in range(1, v // 2 + 1):
                for i in range(k):
                    p = P(v, k, i)
                    if p.graph_class.value in ("matching", "edgeless", "empty_vertex_set"):
                        continue
                    rep = invariant_report(p)
                    assert rep.diameter == max(rep.distance_profile.values())


class TestMaxRouteDistance:
    @pytest.mark.parametrize(
        "triple, expected", [((8, 4, 1), 2), ((7, 3, 0), 3), ((10, 4, 2), 2)]
    )
    def test_values(self, triple, expected):
        p = P(*triple)
        assert max_route_distance(p) == expected
        # exhaustive evaluation over {i+1, ..., k}
        d = delta(p)
        got = max(
            min(2 * ceil_div(p.k - x, d), 2 * ceil_div(x - p.i, d) + 1)
            for x in range(p.i + 1, p.k + 1)
        )
        assert got == expected

    def test_johnson_unsupported(self):
        with pytest.raises(Unsupported):
            max_route_distance(P(8, 3, 2))


class TestInvariantReport:
    def test_petersen(self):
        rep = report_for(5, 2, 0)
        assert (rep.girth, rep.odd_girth, rep.diameter) == (5, 5, 2)
        assert rep.distance_profile == {0: 1, 1: 2, 2: 0}

    def test_matching(self):
        rep = report_for(6, 3, 0)
        assert rep.girth is None and rep.odd_girth is None
        assert rep.diameter == INFINITE
        assert rep.distance_profile == {3: 0, 0: 1, 1: INFINITE, 2: INFINITE}

    def test_complement_reindexing(self):
        low = report_for(7, 4, 2)
        high = report_for(7, 3, 1)
        assert (low.girth, low.odd_girth, low.diameter) == (
            high.girth,
            high.odd_girth,
            high.diameter,
        )
        assert low.distance_profile == {
            x + 1: d for x, d in high.distance_profile.items()
        }
        # Every lifted triple up to v = 12: complementing a pair meeting in x
        # leaves one meeting in x - intersection_range(p).start, and the
        # profile is the normal form's shifted by that amount.
        lifted = [
            p for v in range(2, 13) for k in range(v // 2 + 1, v + 1) for i in range(k + 1)
            if not (p := P(v, k, i)).is_degenerate
        ]
        assert len(lifted) == 70
        for p in lifted:
            q, shift = normalize(p), intersection_range(p).start
            assert shift == 2 * p.k - p.v
            ground = set(range(p.v))
            for x in intersection_range(p):
                a, b = canonical_pair(p, x)
                assert len((ground - set(a)) & (ground - set(b))) == x - shift
            low, high = invariant_report(p), invariant_report(q)
            assert (low.girth, low.odd_girth, low.diameter) == (high.girth, high.odd_girth, high.diameter)
            assert low.distance_profile == {x + shift: d for x, d in high.distance_profile.items()}

    def test_profile_snapshot(self):
        assert report_for(8, 4, 1).distance_profile == {0: 3, 1: 1, 2: 2, 3: 2, 4: 0}

    def test_single_vertex(self):
        rep = report_for(3, 3, 1)
        assert rep.diameter == 0
        assert rep.distance_profile == {3: 0}

    def test_edgeless(self):
        rep = report_for(4, 3, 1)
        assert rep.diameter == INFINITE
        assert rep.distance_profile == {2: INFINITE, 3: 0}


@given(
    st.integers(2, 30).flatmap(
        lambda v: st.tuples(
            st.just(v), st.integers(1, v - 1).flatmap(
                lambda k: st.tuples(st.just(k), st.integers(0, k - 1))
            )
        )
    )
)
def test_report_totality_and_basic_shape(args):
    v, (k, i) = args
    rep = report_for(v, k, i)
    p = rep.params
    assert set(rep.distance_profile) == set(intersection_range(p))
    assert rep.distance_profile[k] == 0
    if not p.is_degenerate:
        assert rep.distance_profile[i] == 1
        if rep.girth is not None:
            assert rep.girth in (3, 4, 5, 6)
            assert rep.odd_girth >= rep.girth and rep.odd_girth % 2 == 1
    dists = [d for d in rep.distance_profile.values() if d != INFINITE]
    assert all(isinstance(d, int) and d >= 0 for d in dists)


def test_normalized_precondition_enforced():
    p = P(7, 4, 2)  # valid but not normalized
    for call in (girth, odd_girth, diameter, max_route_distance,
                 lambda q: distance_by_intersection(q, 2),
                 lambda q: has_common_neighbor(q, 2)):
        with pytest.raises(Unsupported, match="not normalized"):
            call(p)
    # the report handles it through the complement isomorphism
    assert invariant_report(p).girth == girth(normalize(p))
