"""Combinadic ranking of k-subsets and serialization of graphs and reports.

Subsets are ranked in colexicographic order: sort each subset ascending as
e_0 < ... < e_{k-1}; its rank is sum_j C(e_j, j+1).  Colex was chosen over
lex because unranking needs no per-element binomial tables.  External
consumers can reproduce ranks from this formula alone.

Graph export encodes each slab of edges that ``ExplicitGraph.edge_blocks``
yields as it arrives, so the oracle's slab is the only step size between
packed rows and output bytes.  Only graph export needs numpy, and it
imports numpy when called, so ranking and report rendering load without it.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .params import INFINITE, Parameters, delta, rank_index, vertex

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .formulas import InvariantReport
    from .oracle import ExplicitGraph, OracleReport

REPORT_SCHEMA = "gjg.report/1"

_PAD = 0  # filler in the label tables; never a byte of an ASCII payload


def rank(p: Parameters, s: Sequence[int]) -> int:
    """Colex rank of a vertex (see :func:`gjg.params.vertex`); {0,...,k-1} ranks 0."""
    return sum(map(comb, vertex(p, s), range(1, p.k + 1)))


def unrank(p: Parameters, r: int) -> tuple[int, ...]:
    """Inverse of rank: the k-subset with colex rank r, which must pass
    :func:`gjg.params.rank_index` (OutOfRange otherwise).

    Walks c = C(e, j) down from C(v, k) by exact integer steps,
    C(e-1, j) = C(e, j)(e-j)/e and C(e-1, j-1) = C(e, j) j/e, so no
    binomial is recomputed.
    """
    rank_index(p, r)
    v, k = p.v, p.k  # read once: a named-tuple field costs more than a local
    out = [0] * k
    e, c = v, comb(v, k)
    for j in range(k, 0, -1):
        while c > r:
            c = c * (e - j) // e
            e -= 1
        out[j - 1] = e
        r -= c
        if j > 1:  # e >= j - 1 >= 1 here
            c = c * j // e
            e -= 1
    return tuple(out)


def _undirected_edges(g: "ExplicitGraph") -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The non-empty (us, ws) slabs of :meth:`ExplicitGraph.edge_blocks`.
    Export reads edges only through here, so a test can substitute its
    own; with empty slabs skipped, dropping the last one drops the last line."""
    return (block for block in g.edge_blocks() if block[0].size)


def _label_table(n: int, offset: int, prefix: bytes) -> np.ndarray:
    """A (2, n, width) ASCII uint8 table: row r of half 0 spells prefix,
    the digits of r + offset and a space, of half 1 _PAD bytes, the same
    digits and a newline.  Digits are right-aligned behind leading _PADs."""
    import numpy as np

    top = n - 1 + offset
    labels = np.arange(offset, top + 1)[:, None]
    scale = 10 ** np.arange(len(str(top)) - 1, -1, -1)
    digits = labels // scale % 10 + ord("0")
    digits[(labels < scale) & (scale > 1)] = _PAD
    table = np.full((2, n, len(prefix) + scale.size + 1), _PAD, dtype=np.uint8)
    table[:, :, -scale.size - 1 : -1] = digits  # one digit block, both halves
    table[0, :, : len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    table[:, :, -1] = [[ord(" ")], [ord("\n")]]
    return table


def _encode_edges(blocks: Iterable[tuple[np.ndarray, np.ndarray]], n: int, offset: int,
                  prefix: bytes) -> list[bytes]:
    """One ASCII line per edge (prefix, u, space, w, newline), labels
    shifted by offset, as one bytes chunk per (us, ws) block.

    Read as 2n rows, the label table holds every line's first half in rows
    0..n-1 and its second in rows n..2n-1.  A block's u and w + n,
    interleaved into one fresh intp index, list the rows to take, so one
    gather (making no index copy of its own) spells the block's lines and
    one bytes.translate deletes the pads between them.
    """
    import numpy as np

    table = _label_table(n, offset, prefix).reshape(2 * n, -1)
    pad = bytes([_PAD])
    chunks = []
    for us, ws in blocks:
        rows = np.empty(2 * len(us), dtype=np.intp)
        rows[0::2] = us
        np.add(ws, n, out=rows[1::2])
        chunks.append(table.take(rows, axis=0).tobytes().translate(None, pad))
    return chunks


def export_graph(g: "ExplicitGraph", format: str) -> bytes:
    """Serialize adjacency as exactly 'edgelist' (0-based) or 'dimacs'
    (1-based); any other value, 'DIMACS' included, raises ValueError.

    Output is byte-identical across runs: edges sorted by (u, w) with
    u < w, every line newline-terminated.  Each slab of edges is encoded
    in bulk with numpy as the oracle yields it, so no Python object is
    made per edge, no array holds every edge, and the memory needed is a
    small multiple of the payload.
    """
    if format not in ("edgelist", "dimacs"):
        raise ValueError(f"unknown format {format!r}; expected 'edgelist' or 'dimacs'")
    if format == "edgelist":
        return b"".join(_encode_edges(_undirected_edges(g), g.n, 0, b""))
    header = f"p edge {g.n} {g.edge_count}\n".encode("ascii")
    return b"".join([header, *_encode_edges(_undirected_edges(g), g.n, 1, b"e ")])


def format_value(x) -> str:
    """Render a report value; infinity and None get stable literal spellings."""
    if x is None:
        return "undefined"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "infinite" if x == INFINITE else str(int(x))
    return str(x)


def export_report(r: "InvariantReport | OracleReport") -> bytes:
    """Line-oriented key/value rendering of a report, stable key order.

    Keys: schema, v, k, i, delta, class, girth, odd_girth, diameter,
    distance_profile (one indented line per |A ∩ B|), and
    connected for oracle-side reports.
    """
    p = r.params
    lines = [
        f"schema: {REPORT_SCHEMA}",
        f"v: {p.v}",
        f"k: {p.k}",
        f"i: {p.i}",
        f"delta: {delta(p)}",
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
