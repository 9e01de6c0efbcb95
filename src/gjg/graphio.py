"""Combinadic ranking of k-subsets and serialization of graphs and reports.

Subsets are ranked in colexicographic order: sort each subset ascending as
e_0 < ... < e_{k-1}; its rank is sum_j C(e_j, j+1).  Colex was chosen over
lex because unranking needs no per-element binomial tables.  External
consumers can reproduce ranks from this formula alone.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InvalidSet, OutOfRange
from .params import Parameters

if TYPE_CHECKING:  # pragma: no cover
    from .formulas import InvariantReport
    from .oracle import ExplicitGraph, OracleReport

REPORT_SCHEMA = "gjg.report/1"


def _checked_subset(p: Parameters, s: Sequence[int]) -> tuple[int, ...]:
    t = tuple(s)
    if len(t) != p.k:
        raise InvalidSet(f"expected {p.k} elements, got {len(t)}")
    if any(not 0 <= e < p.v for e in t):
        raise InvalidSet(f"elements must lie in [0, {p.v}), got {t}")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise InvalidSet(f"elements must be strictly increasing, got {t}")
    return t


def rank(p: Parameters, s: Sequence[int]) -> int:
    """Colex rank of a sorted k-subset; {0,...,k-1} ranks 0."""
    t = _checked_subset(p, s)
    return sum(comb(e, j + 1) for j, e in enumerate(t))


def unrank(p: Parameters, r: int) -> tuple[int, ...]:
    """Inverse of rank: the k-subset with colex rank r."""
    n = comb(p.v, p.k)
    if not 0 <= r < n:
        raise OutOfRange(f"rank {r} outside [0, {n})")
    out = [0] * p.k
    e = p.v - 1
    for j in range(p.k, 0, -1):
        while comb(e, j) > r:
            e -= 1
        out[j - 1] = e
        r -= comb(e, j)
        e -= 1
    return tuple(out)


def _undirected_edges(g: "ExplicitGraph") -> Iterable[tuple[int, int]]:
    # edge_blocks walks edges with u < w in (u, w)-lexicographic order.
    for us, ws in g.edge_blocks():
        yield from zip(us.tolist(), ws.tolist())


def export_graph(g: "ExplicitGraph", format: str) -> bytes:
    """Serialize adjacency as 'edgelist' (0-based) or 'dimacs' (1-based).

    Output is byte-identical across runs: edges sorted by (u, w) with
    u < w, every line newline-terminated.
    """
    fmt = format.lower()
    if fmt == "edgelist":
        lines = [f"{u} {w}\n" for u, w in _undirected_edges(g)]
    elif fmt == "dimacs":
        lines = [f"p edge {g.n} {g.edge_count}\n"]
        lines += [f"e {u + 1} {w + 1}\n" for u, w in _undirected_edges(g)]
    else:
        raise ValueError(f"unknown format {format!r}; expected 'edgelist' or 'dimacs'")
    return "".join(lines).encode("ascii")


def format_value(x) -> str:
    """Render a report value; infinity and None get stable literal spellings."""
    if x is None:
        return "undefined"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "infinite" if x == float("inf") else str(int(x))
    return str(x)


def export_report(r: "InvariantReport | OracleReport") -> bytes:
    """Line-oriented key/value rendering of a report, stable key order.

    Keys: schema, v, k, i, delta, class, girth, odd_girth, diameter,
    distance_profile (one indented line per intersection size), and
    connected for oracle-side reports.
    """
    from .params import delta as _delta

    p = r.params
    lines = [
        f"schema: {REPORT_SCHEMA}",
        f"v: {p.v}",
        f"k: {p.k}",
        f"i: {p.i}",
        f"delta: {_delta(p)}",
        f"class: {p.graph_class.value}",
        f"girth: {format_value(r.girth)}",
        f"odd_girth: {format_value(r.odd_girth)}",
        f"diameter: {format_value(r.diameter)}",
        "distance_profile:",
    ]
    for x in sorted(r.distance_profile):
        lines.append(f"  {x}: {format_value(r.distance_profile[x])}")
    connected = getattr(r, "connected", None)
    if connected is not None:
        lines.append(f"connected: {format_value(connected)}")
    return ("\n".join(lines) + "\n").encode("ascii")
