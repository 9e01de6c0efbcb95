"""Named faults that the checks must catch.

Each row patches one fault into every module that binds the faulty name
and asserts which check fails and where.  A check that no fault can trip
is dead code; a fault that no check trips is an untested promise.
"""

import time

import gjg
from gjg import cli, formulas, graphio, oracle, params, scheme, sweep, witness
from gjg.sweep import check_triple

# Every module of the package; a fault is patched wherever its name is bound.
MODULES = (gjg, cli, formulas, graphio, oracle, params, scheme, sweep, witness)


def _patch_everywhere(monkeypatch, name: str, fault) -> None:
    bound = [m for m in MODULES if hasattr(m, name)]
    assert params in bound
    for module in bound:
        monkeypatch.setattr(module, name, fault)


def test_range_fault_fails_the_profile_at_every_triple(monkeypatch):
    # intersection_range drops x = 0 where v >= 2k+2, k >= 3 and i >= 1,
    # 23 triples with v <= 12.  The oracle keys its profile by the classes
    # the graph has, so each fails the profile comparison first; an
    # internal line follows, the sweep's pair counts having no x = 0.
    # Measured at 0.03-0.04 s on a 2-vCPU VM.
    real = params.intersection_range

    def without_zero(p):
        hit = p.v >= 2 * p.k + 2 and p.k >= 3 and p.i >= 1
        return range(1, p.k + 1) if hit else real(p)

    triples = [(v, k, i) for v in range(13) for k in range(3, v) for i in range(1, k)
               if v >= 2 * k + 2]
    assert len(triples) == 23
    _patch_everywhere(monkeypatch, "intersection_range", without_zero)
    start = time.perf_counter()
    results = [check_triple(*t) for t in triples]
    elapsed = time.perf_counter() - start
    missed = [r.triple for r in results if not r.failures or not r.failures[0].startswith("distance_profile:")]
    assert missed == []
    assert elapsed < 2, f"{elapsed:.2f} s"
