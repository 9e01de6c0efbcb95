"""A third ground truth: the quotient of J(v,k,i) by intersection with a root.

Fix a root vertex R and put each vertex B in class x = |R ∩ B|, for x in
``intersection_range(p)``.  The classes are the orbits of R's stabilizer
in Sym(v), so the partition is equitable: every vertex of class x has the
same number b(x, y) of neighbours in class y.  A neighbour C of B takes
a elements from R ∩ B, i - a from B ∖ R, y - a from R ∖ B and the other
k - i - y + a from outside R ∪ B, so

    b(x, y) = sum_a C(x, a) C(k-x, i-a) C(k-x, y-a) C(v-2k+x, k-i-y+a),

with C(n, r) = 0 outside 0 <= r <= n.  Every invariant the paper states
is read from these (k+1)^2 numbers by the oracle's own rules, applied to
classes in place of vertices; nothing here builds a graph or reads a
closed form, and a triple with v < 2k is computed directly.

Background: Delsarte, "An algebraic approach to the association schemes
of coding theory" (1973); Godsil and Royle, *Algebraic Graph Theory*
(2001), on equitable partitions and their quotients.
"""

from __future__ import annotations

import math

from .params import INFINITE, InvariantReport, Parameters, intersection_range


def quotient(p: Parameters) -> dict[tuple[int, int], int]:
    """{(x, y): b(x, y)} for every pair of classes x, y.

    The sum runs over max(0, i-k+x, y-k+x, i+y-k) <= a <= min(x, i, y,
    v-3k+x+i+y), each bound one binomial's range, so every term there is
    positive and every other term is 0: b(x, y) > 0 exactly when that
    interval is non-empty.  A degenerate triple has no edges, and its
    quotient is all zero (at i = k the sum would count B itself).
    """
    v, k, i = p.v, p.k, p.i
    classes = intersection_range(p)
    b = dict.fromkeys(((x, y) for x in classes for y in classes), 0)
    if p.is_degenerate:
        return b
    for x, y in b:
        b[x, y] = sum(math.comb(x, a) * math.comb(k - x, i - a) * math.comb(k - x, y - a)
                      * math.comb(v - 2 * k + x, k - i - y + a)
                      for a in range(max(0, i - k + x, y - k + x, i + y - k),
                                     min(x, i, y, v - 3 * k + x + i + y) + 1))
    return b


def scheme_report(p: Parameters) -> InvariantReport:
    """Profile, diameter, girth and odd girth read from ``quotient(p)``.

    One BFS over the classes from class k, the root's own, as
    ``oracle.search`` runs over vertices: each level's classes get its
    distance t (INFINITE when never reached; the diameter is the
    largest), and the level is tested as it is found.  Until the girth
    is known, a class with at least two neighbours in level t-1 (t > 1)
    closes a cycle of length 2t; until the odd girth is known, a
    neighbour inside level t closes one of 2t+1.  The first level with
    a candidate sets the girth, an even one winning, and the first with
    a neighbour inside it the odd girth.  The next level is the
    unreached classes with a neighbour in this one.  A degenerate
    triple's all-zero quotient gives the closed forms' report for it:
    one level, no cycle.
    """
    b = quotient(p)
    profile = dict.fromkeys(intersection_range(p), INFINITE)
    prev, level, t = [], [p.k], 0
    girth = odd_girth = None
    while level:
        profile.update(dict.fromkeys(level, t))
        even = girth is None and t > 1 and any(sum(b[x, y] for y in prev) >= 2 for x in level)
        odd = odd_girth is None and any(b[x, y] for x in level for y in level)
        if girth is None and (even or odd):
            girth = 2 * t if even else 2 * t + 1
        if odd:
            odd_girth = 2 * t + 1
        prev, level, t = level, [y for y in profile if profile[y] == INFINITE
                                 and any(b[x, y] for x in level)], t + 1
    return InvariantReport(p, girth, odd_girth, max(profile.values()), profile)
