"""Parameter triples (v, k, i) for generalized Johnson graphs.

J(v,k,i) has the k-subsets of {0,...,v-1} as vertices, two subsets being
adjacent exactly when their intersection has size i.  The constructor
accepts any triple with v >= k >= i >= 0 and classifies it.  The closed
forms are total over accepted triples; only girth, diameter and the
witness constructions read the normal form v >= 2k that :func:`normalize`
reaches by complementing every vertex set.  A vertex is
what :func:`vertex` accepts, an intersection size what
:func:`intersection_size` accepts, a rank what :func:`rank_index` accepts;
every entry point that takes one asks it.  How many vertices meet one
in x elements is :func:`class_size`.  A report is an
:class:`InvariantReport`, whichever ground truth made it.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from typing import NamedTuple

from .errors import DegenerateClass, InvalidOrder, InvalidSet, OutOfRange

INFINITE = math.inf  # the distance between unreachable vertices


class GraphClass(enum.Enum):
    """Classification tag; exactly one applies per triple."""

    EMPTY_VERTEX_SET = "empty_vertex_set"  # k = i or v = k: no edges possible
    EDGELESS = "edgeless"                  # v < 2k and i < 2k - v: intersections too large
    MATCHING = "matching"                  # (2k, k, 0): disjoint union of single edges
    ODD_GRAPH = "odd_graph"                # (2k+1, k, 0)
    JOHNSON = "johnson_graph"              # i = k - 1
    KNESER = "kneser_graph"                # i = 0
    STANDARD = "standard"


_DEGENERATE = frozenset({GraphClass.EMPTY_VERTEX_SET, GraphClass.EDGELESS})


class Parameters(NamedTuple):
    """Validated triple with its classification.  Build via make_parameters."""

    v: int
    k: int
    i: int
    graph_class: GraphClass

    def __str__(self) -> str:
        return f"J({self.v},{self.k},{self.i})"

    @property
    def is_degenerate(self) -> bool:
        """True when the graph is empty or edgeless (no invariants defined)."""
        return self.graph_class in _DEGENERATE

    @property
    def is_normalized(self) -> bool:
        return self.v >= 2 * self.k


class InvariantReport(NamedTuple):
    """The invariants of one triple, closed-form or measured:
    distance_profile maps |A ∩ B| to dist(A,B).  connected is the measured
    connectivity; a closed-form report leaves it None."""

    params: Parameters
    girth: int | None
    odd_girth: int | None
    diameter: int | float
    distance_profile: dict[int, int | float]
    connected: bool | None = None


def _classify(v: int, k: int, i: int) -> GraphClass:
    # Precedence: empty > edgeless > matching > odd > johnson > kneser > standard.
    if k == i or v == k:
        return GraphClass.EMPTY_VERTEX_SET
    if v < 2 * k and i < 2 * k - v:
        return GraphClass.EDGELESS
    if v == 2 * k and i == 0:
        return GraphClass.MATCHING
    if v == 2 * k + 1 and i == 0:
        return GraphClass.ODD_GRAPH
    if i == k - 1:
        return GraphClass.JOHNSON
    if i == 0:
        return GraphClass.KNESER
    return GraphClass.STANDARD


def make_parameters(v: int, k: int, i: int) -> Parameters:
    """Validate and classify a triple.

    Raises InvalidOrder unless v, k and i are ints (bools, enum members
    and other int subclasses are not) with v >= k >= i >= 0.  Degenerate
    triples (k = i, v = k, or intersections forced above i) are accepted
    and tagged rather than rejected, so callers can explain them.
    """
    if not (type(v) is int and type(k) is int and type(i) is int):
        raise InvalidOrder(f"parameters must be integers, got ({v!r}, {k!r}, {i!r})")
    if not v >= k >= i >= 0:
        raise InvalidOrder(f"need v >= k >= i >= 0, got ({v}, {k}, {i})")
    return Parameters(v, k, i, _classify(v, k, i))


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for a >= 0, b > 0 (every numerator read here qualifies)."""
    if a < 0 or b <= 0:
        raise ValueError(f"ceil_div needs a >= 0 and b > 0, got ({a}, {b})")
    return (a + b - 1) // b


def delta(p: Parameters) -> int:
    """The quantity v - 2k + 2i, the same for a triple and its normal form;
    positive for every non-degenerate non-matching triple."""
    return p.v - 2 * p.k + 2 * p.i


def normalize(p: Parameters) -> Parameters:
    """Return the complement-isomorphic triple with v >= 2k.

    J(v,k,i) and J(v, v-k, v-2k+i) are isomorphic via complementation of
    every vertex set; when v < 2k the latter satisfies v >= 2k'.  Identity
    for already-normalized input, so a pair meeting in x in p meets in
    x - intersection_range(p).start in the result (v - 2k + x when
    complemented).  Never produces a matching unless given one.  Raises
    DegenerateClass for empty or edgeless input.
    """
    if p.is_degenerate:
        raise DegenerateClass(f"{p} ({p.graph_class.value}) has no normal form")
    if p.is_normalized:
        return p
    return make_parameters(p.v, p.v - p.k, p.v - 2 * p.k + p.i)


def intersection_range(p: Parameters) -> range:
    """Possible |A ∩ B| for two k-subsets of a v-set: max(0, 2k-v) .. k."""
    return range(max(0, 2 * p.k - p.v), p.k + 1)


def class_size(p: Parameters, x: int) -> int:
    """How many k-subsets meet a fixed one in x elements, 0 <= x <= k:
    C(k,x) * C(v-k,k-x), which is 0 where no subset does."""
    return math.comb(p.k, x) * math.comb(p.v - p.k, p.k - x)


def intersection_size(p: Parameters, x) -> int:
    """x as a possible |A ∩ B| in J(v,k,i): an int (bools and numpy integers
    are not) inside intersection_range(p).  Raises OutOfRange otherwise."""
    if type(x) is not int:
        raise OutOfRange(f"intersection size must be an integer, got {x!r}")
    r = intersection_range(p)
    if x not in r:
        raise OutOfRange(f"intersection size {x} outside [{r.start}, {r.stop - 1}]")
    return x


def is_sequence(s) -> bool:
    """Whether s is a sequence: a tuple, a list or any other
    collections.abc.Sequence, such as a range; a set, a dict, an iterator
    or a generator is not."""
    cls = type(s)  # tuples and lists skip the slower ABC check
    return cls is tuple or cls is list or isinstance(s, Sequence)


def vertex(p: Parameters, s) -> tuple[int, ...]:
    """s as a vertex of J(v,k,i): a sequence (see :func:`is_sequence`) of
    exactly k ints (bools, numpy integers and other int subclasses are
    not), strictly increasing, inside range(v).  Raises InvalidSet for
    anything else."""
    if type(s) is not tuple and not is_sequence(s):  # a tuple skips the call
        raise InvalidSet(f"expected a sequence of {p.k} elements, got {s!r}")
    t = tuple(s)
    if len(t) != p.k:
        raise InvalidSet(f"expected {p.k} elements, got {len(t)}")
    if operator.countOf(map(type, t), int) != len(t):
        raise InvalidSet(f"elements must be integers, got {t}")
    if not all(map(operator.lt, t, t[1:])):
        raise InvalidSet(f"elements must be strictly increasing, got {t}")
    if t and not (0 <= t[0] and t[-1] < p.v):
        raise InvalidSet(f"elements must lie in [0, {p.v}), got {t}")
    return t


def rank_index(p: Parameters, r) -> int:
    """r as the colex rank of a vertex of J(v,k,i): an int (bools and numpy
    integers are not) in [0, C(v,k)).  Raises OutOfRange otherwise, so -1
    never answers for the last vertex."""
    if type(r) is not int:
        raise OutOfRange(f"rank must be an integer, got {r!r}")
    n = math.comb(p.v, p.k)
    if not 0 <= r < n:
        raise OutOfRange(f"rank {r} outside [0, {n})")
    return r
