import pytest
from hypothesis import given
from hypothesis import strategies as st

from gjg.errors import DegenerateClass, InvalidOrder
from gjg.params import GraphClass, delta, intersection_range, make_parameters, normalize


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


@pytest.mark.parametrize("triple", [(True, 1, 0), (2, True, 0), (2, 1, False)])
def test_rejects_bools(triple):
    with pytest.raises(InvalidOrder):
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
