import enum
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gjg.errors import DegenerateClass, GJGError, InvalidOrder, InvalidSet, OutOfRange
from gjg.formulas import distance_by_intersection, has_common_neighbor
from gjg.graphio import rank
from gjg.oracle import build_graph, oracle_distance
from gjg.params import GraphClass, delta, intersection_range, make_parameters, normalize, vertex
from gjg.witness import Walk, WalkKind, canonical_pair, common_neighbor, geodesic, verify_walk


@pytest.mark.parametrize(
    "triple, expected",
    [
        ((5, 2, 0), GraphClass.ODD_GRAPH),
        ((6, 3, 0), GraphClass.MATCHING),
        ((2, 1, 0), GraphClass.MATCHING),
        ((4, 2, 2), GraphClass.EMPTY_VERTEX_SET),
        ((3, 3, 1), GraphClass.EMPTY_VERTEX_SET),
        ((4, 3, 1), GraphClass.EDGELESS),
        ((8, 3, 2), GraphClass.JOHNSON),
        ((4, 2, 1), GraphClass.JOHNSON),
        ((7, 3, 0), GraphClass.ODD_GRAPH),
        ((8, 3, 0), GraphClass.KNESER),
        ((10, 4, 2), GraphClass.STANDARD),
        ((7, 4, 2), GraphClass.STANDARD),
    ],
)
def test_classification(triple, expected):
    assert make_parameters(*triple).graph_class is expected


def test_rejects_bad_order():
    with pytest.raises(InvalidOrder):
        make_parameters(3, 4, 0)
    with pytest.raises(InvalidOrder):
        make_parameters(5, 2, 3)
    with pytest.raises(InvalidOrder):
        make_parameters(5, 2, -1)


class _Int(int):
    pass


class _N(enum.IntEnum):
    ZERO = 0
    TWO = 2
    FIVE = 5


@pytest.mark.parametrize("triple", [
    (True, 1, 0), (2, True, 0), (2, 1, False),
    # Equal to ints under ==, but a Parameters holds exact ints only.
    (_N.FIVE, _N.TWO, _N.ZERO), (5, 2, _N.ZERO), (_Int(5), 2, 0), (5, _Int(2), 0),
])
def test_rejects_bools(triple):
    with pytest.raises(InvalidOrder, match="^parameters must be integers"):
        make_parameters(*triple)


def test_accepts_weak_inequalities():
    # k = i and v = k are classified, not rejected
    assert make_parameters(4, 2, 2).graph_class is GraphClass.EMPTY_VERTEX_SET
    assert make_parameters(3, 3, 3).graph_class is GraphClass.EMPTY_VERTEX_SET


@pytest.mark.parametrize(
    "triple, expected",
    [
        ((7, 4, 2), (7, 3, 1)),
        ((10, 4, 2), (10, 4, 2)),
        ((9, 5, 2), (9, 4, 1)),
        ((7, 4, 1), (7, 3, 0)),
    ],
)
def test_normalize_values(triple, expected):
    q = normalize(make_parameters(*triple))
    assert (q.v, q.k, q.i) == expected


def test_normalize_rejects_degenerate():
    with pytest.raises(DegenerateClass):
        normalize(make_parameters(4, 3, 0))
    with pytest.raises(DegenerateClass):
        normalize(make_parameters(3, 3, 1))


@pytest.mark.parametrize(
    "triple, expected",
    [((10, 4, 2), 6), ((7, 3, 0), 1), ((9, 4, 0), 1), ((8, 4, 1), 2)],
)
def test_delta_values(triple, expected):
    assert delta(make_parameters(*triple)) == expected


triples = st.tuples(
    st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)
).map(lambda t: tuple(sorted(t, reverse=True)))


@given(triples)
def test_normalize_properties(t):
    v, k, i = t
    p = make_parameters(v, k, i)
    if p.is_degenerate:
        return
    q = normalize(p)
    assert q.v >= 2 * q.k
    assert normalize(q) == q  # idempotent
    assert delta(q) == delta(p)  # invariant under complementation
    if q.graph_class is GraphClass.MATCHING:
        assert p.graph_class is GraphClass.MATCHING


@given(triples)
def test_intersection_range_bounds(t):
    p = make_parameters(*t)
    r = intersection_range(p)
    assert r.start == max(0, 2 * p.k - p.v)
    assert r.stop == p.k + 1


def _bad_vertices(p):
    # name: (the fault InvalidSet names, the value).  Wrong values, each
    # a = (0, ..., k-1) with one fault (the float, bool, numpy and int
    # subclass cases equal a under ==), then wrong shapes, then values
    # that are not sequences; the sets here iterate in ascending order.
    # An iterator is rejected unread, so one serves every entry point.
    a = tuple(range(p.k))
    integers, increasing, inside = "must be integers", "strictly increasing", "must lie in"
    sequence = f"expected a sequence of {p.k} elements"
    return {
        "float": (integers, (*a[:-1], float(a[-1]))),
        "bool": (integers, (a[0], True, *a[2:])),
        "bool last": (integers, (*a[:-1], True)),
        "numpy integer": (integers, (np.int64(0), *a[1:])),
        "numpy integer inside": (integers, (*a[:1], np.int64(a[1]), *a[2:])),
        "int subclass": (integers, (*a[:-1], _Int(a[-1]))),
        "string": (integers, (*a[:-1], str(a[-1]))),
        "negative": (inside, (-1, *a[1:])),
        "too large": (inside, (*a[:-1], p.v)),
        "unsorted": (increasing, a[::-1]),
        "duplicated": (increasing, (a[0], a[0], *a[2:])),
        "too short": (f"expected {p.k} elements, got {p.k - 1}", a[:-1]),
        "too long": (f"expected {p.k} elements, got {p.k + 1}", (*a, p.v - 1)),
        "integer": (sequence, 5),
        "None": (sequence, None),
        "set": (sequence, set(a)),
        "frozenset": (sequence, frozenset(a)),
        "dict": (sequence, dict.fromkeys(a)),
        "iterator": (sequence, iter(a)),
        "generator": (sequence, (e for e in a)),
    }


def _answers(p, a, b):
    # What each entry point that takes a vertex says of the pair a, b:
    # True when it takes both, else its InvalidSet message; verify_walk,
    # which never raises, says True or False.
    def takes(build, *args):
        try:
            build(p, *args)
        except InvalidSet as exc:
            return str(exc)
        except GJGError:  # an answer about the pair, not about a vertex
            pass
        return True

    return {
        "rank": takes(lambda p, a, b: (rank(p, a), rank(p, b)), a, b),
        "verify_walk": verify_walk(p, Walk((a, b), WalkKind.PATH, 1)),
        "geodesic": takes(geodesic, a, b),
        "common_neighbor": takes(common_neighbor, a, b),
    }


@pytest.mark.parametrize("triple", [(5, 2, 0), (8, 4, 1), (7, 4, 2)])  # (7,4,2) lifts
def test_every_entry_point_rejects_the_same_vertices(triple):
    # Each entry point rejects each bad vertex with vertex's own message.
    p = make_parameters(*triple)
    a = tuple(range(p.k))
    b = tuple(range(p.k - p.i, 2 * p.k - p.i))  # adjacent to a
    takes_all = {"rank": True, "verify_walk": True, "geodesic": True, "common_neighbor": True}
    assert _answers(p, a, b) == _answers(p, b, a) == takes_all
    for name, (fault, bad) in _bad_vertices(p).items():
        with pytest.raises(InvalidSet, match=fault) as caught:
            vertex(p, bad)
        said = dict.fromkeys(takes_all, str(caught.value)) | {"verify_walk": False}
        assert _answers(p, bad, b) == _answers(p, b, bad) == said, name


def test_vertex_returns_a_tuple_and_names_the_fault():
    p = make_parameters(6, 3, 1)
    assert vertex(p, [0, 2, 5]) == (0, 2, 5)
    assert vertex(p, range(3)) == (0, 1, 2)
    assert vertex(make_parameters(3, 0, 0), ()) == ()
    with pytest.raises(InvalidSet, match="strictly increasing"):
        vertex(p, (2, 0, 5))
    with pytest.raises(InvalidSet, match="expected a sequence of 3 elements"):
        vertex(p, 5)


@pytest.mark.parametrize("triple", [(8, 4, 1), (6, 3, 0), (7, 4, 2)])  # (7,4,2) lifts
def test_every_entry_point_rejects_the_same_intersection_sizes(triple):
    # The closed forms take the normal form; each call is checked over the
    # intersection sizes of the triple it is given.
    p = make_parameters(*triple)
    q, g = normalize(p), build_graph(p)
    calls = {
        "distance_by_intersection": (q, lambda x: distance_by_intersection(q, x)),
        "has_common_neighbor": (q, lambda x: has_common_neighbor(q, x)),
        "canonical_pair": (p, lambda x: canonical_pair(p, x)),
        "oracle_distance": (p, lambda x: oracle_distance(g, x)),
    }
    for name, (t, call) in calls.items():
        for x in intersection_range(t):
            got = call(x)
            if name in ("distance_by_intersection", "oracle_distance"):
                assert type(got) is int or got == math.inf, (name, x, got)
            elif name == "has_common_neighbor":
                assert type(got) is bool, (name, x, got)
        for bad in (2.0, True, np.int64(2), "2", None, -1, p.k + 1):
            fault = "outside" if type(bad) is int else "must be an integer"
            with pytest.raises(OutOfRange, match=f"^intersection size .*{fault}"):
                call(bad)


def test_params_imports_only_errors():
    # params holds the shared definitions under graphio, witness, oracle
    # and cli, so it may depend on nothing in the package but the errors.
    import ast
    import inspect

    import gjg.params

    pulled = set()
    for node in ast.walk(ast.parse(inspect.getsource(gjg.params))):
        if isinstance(node, ast.ImportFrom):
            pulled.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            pulled.update(a.name for a in node.names)
    assert {m for m in pulled if m.startswith(".") or m.startswith("gjg")} == {".errors"}
