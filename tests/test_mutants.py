"""Named faults that the checks must catch.

Each row patches one fault into every module that binds the faulty name
and asserts which check fails and where.  A check that no fault can trip
is dead code; a fault that no check trips is an untested promise.
"""

import __future__
import functools
import inspect
import math
import textwrap
import time

import pytest

import gjg
from gjg import cli, formulas, graphio, oracle, params, scheme, sweep, witness
from gjg.params import make_parameters
from gjg.scheme import scheme_report
from gjg.sweep import TripleResult, _check_report, check_triple

# Every module of the package; a fault is patched wherever its name is bound.
MODULES = (gjg, cli, formulas, graphio, oracle, params, scheme, sweep, witness)


def _patch_everywhere(monkeypatch, name: str, fault) -> None:
    bound = [m for m in MODULES if hasattr(m, name)]
    assert bound, name
    for module in bound:
        monkeypatch.setattr(module, name, fault)


def test_range_fault_fails_the_profile_at_every_triple(monkeypatch):
    # intersection_range drops x = 0 where v >= 2k+2, k >= 3 and i >= 1,
    # 23 triples with v <= 12.  The oracle keys its profile by the classes
    # the graph has, so each fails the profile comparison first, and every
    # later check reads the measured classes, so each runs its lower
    # bounds.  An internal line follows: formulas.has_common_neighbor
    # rejects x = 0 as outside the faulted range.
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
    assert [r.triple for r in results if "lower_bound" not in r.checks] == []
    assert [f for r in results for f in r.failures if f.startswith("internal: KeyError")] == []
    assert elapsed < 2, f"{elapsed:.2f} s"


def _mutant(fn, old: str, new: str):
    """fn recompiled from its source with the one occurrence of old
    replaced by new, reading the globals of fn's module."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


# Faults that the report block must catch on the quotient: (function,
# text, faulty text, the one tally category that must fail, how many
# non-degenerate triples with v <= 24 it fails).  The distance fault
# counts x = k - delta into case 1 wherever that is below i; taking x = i
# in too fails 276 triples.  The strict common-neighbour fault fails at
# x = k on every matching and at x = i wherever v = 3(k-i).
FORMULA_FAULTS = {
    "odd girth by floor": (
        "odd_girth", "2 * ceil_div(p.k - p.i, delta(p)) + 1", "2 * ((p.k - p.i) // delta(p)) + 1",
        "odd_girth", 1121),
    "girth 3 read as v > 3(k-i)": (
        "girth", "if v >= 3 * (k - i):", "if v > 3 * (k - i):", "girth", 44),
    "common neighbour strict at max(k-delta, 2i-k)": (
        "has_common_neighbor", ">= max(p.k - delta(p), 2 * p.i - p.k)",
        "> max(p.k - delta(p), 2 * p.i - p.k)", "common_neighbor", 818),
    "max route + 1 at delta = 1": (
        "max_route_distance", "delta(p)) + 1", "delta(p)) + 1 + (delta(p) == 1)", "max_route", 20),
    "diameter case 1 read as v <= 3(k-i)-1": (
        "diameter", "if v < 3 * (k - i) - 1 or i == 0:", "if v <= 3 * (k - i) - 1 or i == 0:",
        "diameter", 21),
    "distance case 1 up to x = k-delta": (
        "distance_by_intersection", "if x < min(i, k - d):", "if x < min(i, k - d + 1):",
        "distance_profile", 74),
}

# Faults in the certificates, in the same form.  The longer geodesic also
# breaks the odd walk's leg check, which raises inside the construction.
WITNESS_FAULTS = {
    "geodesic claims one more step": (
        "_geodesic", "len(path) - 1)", "len(path))", "witness", 616),
    "shortest cycle refuses its triangle": (
        "_shortest_cycle", "if (triangle := _triangle(p)) is not None:",
        "if (triangle := None) is not None:", "witness", 550),
}


@functools.cache
def _quotients() -> tuple:
    """The quotient's report of every non-degenerate triple with v <= 24."""
    return tuple(scheme_report(p) for v in range(25) for k in range(v + 1) for i in range(k + 1)
                 if not (p := make_parameters(v, k, i)).is_degenerate)


def _caught_on_the_quotient(monkeypatch, module, faults: dict) -> dict:
    """Each fault of module patched in alone, run through the report block
    on every quotient report, with no graph built: its label mapped to the
    tally categories that fail and the triples that fail."""
    def no_graph(*args):
        raise AssertionError("the report block built a graph")

    monkeypatch.setattr(oracle, "build_graph", no_graph)
    assert len(_quotients()) == 1222
    caught = {}
    for label, (name, old, new, _, _) in faults.items():
        categories, failed = set(), set()
        with pytest.MonkeyPatch.context() as mp:
            _patch_everywhere(mp, name, _mutant(getattr(module, name), old, new))
            for report in _quotients():
                p = report.params
                res = TripleResult(p.v, p.k, p.i, math.comb(p.v, p.k), p.graph_class.value)
                _check_report(res, report, 1)
                categories.update(f.split(":")[0] for f in res.failures)
                if res.failures:
                    failed.add(res.triple)
        caught[label] = (categories, failed)
    return caught


def test_formula_faults_fail_their_own_category_on_the_quotient(monkeypatch):
    # Each fault fails its own category alone.  Measured at about 2 s on a
    # 2-vCPU VM.
    start = time.perf_counter()
    caught = _caught_on_the_quotient(monkeypatch, formulas, FORMULA_FAULTS)
    elapsed = time.perf_counter() - start
    assert {label: (categories, len(failed)) for label, (categories, failed) in caught.items()} == {
        label: ({row[3]}, row[4]) for label, row in FORMULA_FAULTS.items()}
    # The lemma at x = i is the girth-3 condition, at x = k a vertex's own
    # neighbours; a matching J(2k,k,0) has no neighbour shared at x = k.
    strict = caught["common neighbour strict at max(k-delta, 2i-k)"][1]
    at_i = {(p.v, p.k, p.i) for r in _quotients() if (p := r.params).v == 3 * (p.k - p.i)}
    matchings = {(2 * k, k, 0) for k in range(1, 13)}
    assert len(at_i) == 44 and at_i <= strict
    assert matchings <= strict
    assert elapsed < 20, f"{elapsed:.1f} s"


def test_witness_faults_fail_the_witness_line_alone_on_the_quotient(monkeypatch):
    # A construction that raises fails its own witness line, and the
    # report block goes on.  Measured at about 1 s on a 2-vCPU VM.
    start = time.perf_counter()
    caught = _caught_on_the_quotient(monkeypatch, witness, WITNESS_FAULTS)
    elapsed = time.perf_counter() - start
    assert {label: (categories, len(failed)) for label, (categories, failed) in caught.items()} == {
        label: ({row[3]}, row[4]) for label, row in WITNESS_FAULTS.items()}
    assert elapsed < 20, f"{elapsed:.1f} s"


def test_float_ceiling_fault_misreads_a_large_odd_girth(monkeypatch):
    # A float ceiling loses the exact quotient once the numerator passes 2^53.
    p = make_parameters(2**60 + 1, 2**59, 1)
    assert formulas.odd_girth(p) == 384307168202282327
    _patch_everywhere(monkeypatch, "ceil_div", lambda a, b: math.ceil(a / b))
    assert formulas.odd_girth(p) != 384307168202282327
