import time

import numpy as np
import pytest

from gjg.formulas import invariant_report
from gjg.oracle import build_graph
from gjg.params import make_parameters
from gjg.scheme import quotient, scheme_report

TRIPLES = [make_parameters(v, k, i) for v in range(33) for k in range(v + 1) for i in range(k + 1)]


def test_package_import_leaves_scheme_out(fresh):
    code = "import sys, gjg, gjg.cli\nprint('gjg.scheme' in sys.modules)"
    assert fresh(code) == ["False"]


def test_matches_the_closed_forms_on_every_triple_up_to_32():
    # Every non-degenerate triple with v <= 32, v < 2k and matchings
    # included: profile, diameter, girth and odd girth equal the closed
    # forms'.  Measured at about 0.9 s on a 2-vCPU VM.
    start = time.perf_counter()
    triples = [p for p in TRIPLES if not p.is_degenerate]
    assert len(triples) == 2856
    wrong = [p for p in triples if scheme_report(p) != invariant_report(p)]
    elapsed = time.perf_counter() - start
    assert wrong == []
    assert elapsed < 8, f"{elapsed:.1f} s"


@pytest.mark.parametrize("v", [10**6, 2**200], ids=["1e6", "2^200"])
def test_matches_the_closed_forms_at_huge_v(v):
    # Every k <= 8 and i < k: the quotient has at most nine classes at any v.
    start = time.perf_counter()
    triples = [make_parameters(v, k, i) for k in range(1, 9) for i in range(k)]
    assert len(triples) == 36
    wrong = [p for p in triples if scheme_report(p) != invariant_report(p)]
    elapsed = time.perf_counter() - start
    assert wrong == []
    assert elapsed < 2, f"{elapsed:.2f} s"


def test_degenerate_triples_get_the_all_zero_quotient():
    # The report read from an all-zero quotient has the closed forms'
    # degenerate shape: one reached class, no cycle, and diameter 0 only
    # when there is one vertex.
    for p in (p for p in TRIPLES if p.is_degenerate):
        assert not any(quotient(p).values()), p
        assert scheme_report(p) == invariant_report(p), p


@pytest.mark.parametrize("v", range(1, 11))
def test_quotient_counts_every_vertex_neighbours(v):
    # Equitability, checked on every vertex: a vertex meeting the root
    # (vertex 0) in x elements has b(x, y) neighbours meeting it in y.
    for k in range(v + 1):
        for i in range(k + 1):
            p = make_parameters(v, k, i)
            g = build_graph(p)
            x = np.bitwise_count(g.masks & g.masks[0]).astype(int)
            classes = sorted(set(x.tolist()))
            dense = np.unpackbits(g.adj, axis=1, count=g.n).astype(int)
            counts = dense @ (x[:, None] == np.array(classes)).astype(int)
            b = quotient(p)
            want = np.array([[b[xu, y] for y in classes] for xu in x.tolist()])
            assert np.array_equal(counts, want), p
