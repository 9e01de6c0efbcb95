"""Named faults that the checks must catch.

Each row patches one fault into every module that binds the faulty name
(a name of the oracle into the oracle alone) and asserts which check
fails and where.  A check that no fault can trip is dead code; a fault
that no check trips is an untested promise.
"""

import __future__
import dataclasses
import functools
import inspect
import math
import textwrap
import time
from collections import Counter

import numpy as np
import pytest

import gjg
from gjg import cli, formulas, graphio, oracle, params, scheme, sweep, witness
from gjg.params import GraphClass, make_parameters
from gjg.scheme import scheme_report
from gjg.sweep import SweepConfig, TripleResult, _check_report, check_triple, run_sweep

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


def _odd_girth_up_from_source_0(search):
    def faulty(g, source):
        found = search(g, source)
        if source == 0 and g.n > 100 and found.odd_girth is not None:
            return dataclasses.replace(found, odd_girth=found.odd_girth + 2)
        return found
    return faulty


def _distances_one_short(search):
    def faulty(g, source):
        found = search(g, source)
        return dataclasses.replace(found, dist=np.where(found.dist >= 3, found.dist - 1, found.dist))
    return faulty


def _matching_rows_reversed(build_graph):
    def faulty(p, *args):
        g = build_graph(p, *args)
        if p.graph_class is not GraphClass.MATCHING:
            return g
        adj = g.adj[::-1].copy()
        adj.flags.writeable = False
        return dataclasses.replace(g, adj=adj)
    return faulty


# Faults in the graph side, each run through the sweep of v <= 12 (286
# triples): (module, name, the fault made from the real function, how many
# triples fail each category, complement failures, interface failures).
# A name of the oracle is patched on the oracle alone: every module reads
# it there, and undoing a patch of gjg's lazy name would leave a plain
# attribute that no longer reads through to the oracle.  The class_size
# fault is caught by the build's own degree check, which ends the triple
# with an internal line, so no fault fails the degree tally.
GRAPH_FAULTS = {
    "odd girth + 2 from source 0 when n > 100": (
        oracle, "search", _odd_girth_up_from_source_0, {"transitivity": 79}, 35, 0),
    "rank 0 read as 1 when v >= 12": (
        graphio, "rank", lambda rank: lambda p, s: 1 if p.v >= 12 and rank(p, s) == 0 else rank(p, s),
        {"rank_roundtrip": 66, "common_neighbor": 20}, 0, 0),
    "source_count returns 1": (
        oracle, "source_count", lambda source_count: lambda p: 1, {"pair_sampling": 111}, 0, 0),
    "distances >= 3 read one short": (
        oracle, "search", _distances_one_short,
        {"distance_profile": 56, "diameter": 56, "common_neighbor": 56, "witness": 34,
         "lower_bound": 22, "max_route": 12}, 0, 0),
    "a matching's rows in reverse order": (
        oracle, "build_graph", _matching_rows_reversed,
        {"matching": 6, "girth": 6, "odd_girth": 6, "distance_profile": 6, "diameter": 1}, 0, 2),
    "delta + 1 on odd graphs with k >= 4": (
        params, "delta", lambda delta: lambda p: delta(p) + (p.graph_class is GraphClass.ODD_GRAPH and p.k >= 4),
        {c: 2 for c in ("odd_girth", "diameter", "distance_profile", "common_neighbor", "witness", "max_route")},
        0, 0),
    "class_size + 1 at x = 0": (
        params, "class_size", lambda class_size: lambda p, x: class_size(p, x) + (x == 0),
        {"internal": 36}, 30, 1),
}


def test_graph_faults_fail_their_categories_in_the_sweep():
    # Seven sweeps, measured at about 3 s together on a 2-vCPU VM.
    start = time.perf_counter()
    caught = {}
    for label, (module, name, fault, *_) in GRAPH_FAULTS.items():
        with pytest.MonkeyPatch.context() as mp:
            if module is oracle:
                mp.setattr(oracle, name, fault(getattr(oracle, name)))
            else:
                _patch_everywhere(mp, name, fault(getattr(module, name)))
            outcome = run_sweep(SweepConfig(v_max=12))
        assert len(outcome.results) == 286
        # How many triples fail each category.
        failed = Counter(c for r in outcome.results for c in {f.split(":")[0] for f in r.failures})
        caught[label] = (dict(failed), len(outcome.complement_failures), len(outcome.interface_failures))
    elapsed = time.perf_counter() - start
    assert caught == {label: tuple(row[3:]) for label, row in GRAPH_FAULTS.items()}
    assert elapsed < 20, f"{elapsed:.1f} s"


def must_fail() -> dict[str, set[str]]:
    """Every row of the three tables, by label: the categories its fault
    must fail, read from the tables alone."""
    rows = {label: {row[3]} for label, row in {**FORMULA_FAULTS, **WITNESS_FAULTS}.items()}
    return rows | {label: set(row[3]) for label, row in GRAPH_FAULTS.items()}


def tally_categories() -> frozenset:
    """Every category the sweep of v <= 12 tallies, run with no fault."""
    outcome = run_sweep(SweepConfig(v_max=12))
    assert outcome.passed
    return frozenset(c for r in outcome.results for c in r.checks)


def test_every_tally_category_but_degree_has_a_row_that_must_fail_it():
    assert tally_categories() - set().union(*must_fail().values()) == {"degree"}
