"""Generalized Johnson graphs J(v,k,i): closed-form invariants, explicit
witnesses, and an independent brute-force oracle.

J(v,k,i) has the k-subsets of a v-set as vertices, adjacent when they
intersect in exactly i elements; Kneser graphs (i = 0), odd graphs
(v = 2k+1, i = 0), and Johnson graphs (i = k-1) are special cases.

Importing the package loads the closed forms, the witnesses and ranking,
none of which needs numpy.  The oracle (and numpy with it) loads on the
first access to ``gjg.oracle`` or to one of its names listed in
``__all__``, such as ``gjg.build_graph``; each such name reads through to
``gjg.oracle`` at every access, so it is always the oracle's own object.
The import system's module lock makes that first access safe from
several threads at once.
"""

import importlib

from .errors import (
    BudgetExceeded,
    DegenerateClass,
    Disconnected,
    GJGError,
    InvalidOrder,
    InvalidSet,
    NoCommonNeighbor,
    OutOfRange,
    Unsupported,
)
from .formulas import (
    InvariantReport,
    diameter,
    distance_by_intersection,
    girth,
    has_common_neighbor,
    invariant_report,
    max_route_distance,
    odd_girth,
    report_for,
)
from .graphio import export_graph, export_report, rank, unrank
from .params import (
    INFINITE,
    GraphClass,
    Parameters,
    delta,
    intersection_range,
    make_parameters,
    normalize,
)
from .witness import (
    Walk,
    WalkKind,
    common_neighbor,
    geodesic,
    odd_closed_walk,
    shortest_cycle,
    verify_walk,
)

__version__ = "0.1.0"

# Names gjg re-exports from the oracle, which loads on their first access.
_ORACLE_NAMES = frozenset({
    "DEFAULT_VERTEX_BUDGET", "ExplicitGraph", "OracleReport", "build_graph",
    "oracle_diameter", "oracle_distance", "oracle_girth", "oracle_odd_girth",
    "oracle_report",
})

__all__ = [
    "BudgetExceeded", "DegenerateClass", "Disconnected", "GJGError",
    "InvalidOrder", "InvalidSet", "NoCommonNeighbor", "OutOfRange",
    "Unsupported", "INFINITE", "InvariantReport", "diameter",
    "distance_by_intersection", "girth", "has_common_neighbor",
    "invariant_report", "max_route_distance", "odd_girth", "report_for",
    "export_graph", "export_report", "rank", "unrank",
    *sorted(_ORACLE_NAMES), "GraphClass", "Parameters", "delta",
    "intersection_range", "make_parameters", "normalize", "Walk", "WalkKind",
    "common_neighbor", "geodesic", "odd_closed_walk", "shortest_cycle",
    "verify_walk",
]


def __getattr__(name: str):
    # importlib rather than ``from . import oracle``: the latter asks this
    # module for the attribute first and would recurse into here.
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "oracle", *_ORACLE_NAMES})
